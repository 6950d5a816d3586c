// Command tool is the fixture's only non-test caller.
package main

import (
	"flag"
	"fmt"

	"fixture/internal/words"
)

func main() {
	fmt.Println(words.Fields("a b"), words.Describe(words.Word("w")), words.Splitter{Sep: ","})
	var t words.Tally
	t.N++
	flag.IntVar(&t.Step, "step", 1, "words per tally")
	t.Mark.Reset()
	fmt.Println(t.N, t.Step, t.Limit, t.Mark.At)
}
