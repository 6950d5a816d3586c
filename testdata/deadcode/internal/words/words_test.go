package words

import "testing"

func TestSplit(t *testing.T) {
	if got := (Splitter{Sep: ","}).Split("a,b"); len(got) != 2 {
		t.Fatal(got)
	}
}
