// Command tool is the fixture's only non-test caller.
package main

import (
	"fmt"

	"fixture/internal/words"
)

func main() {
	fmt.Println(words.Fields("a b"), words.Describe(words.Word("w")), words.Splitter{Sep: ","})
}
