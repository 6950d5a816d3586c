package words

import "testing"

func TestSplit(t *testing.T) {
	if got := (Splitter{Sep: ","}).Split("a,b"); len(got) != 2 {
		t.Fatal(got)
	}
}

func TestTallyLimit(t *testing.T) {
	if (Tally{Limit: 3}).Limit != 3 {
		t.Fatal("Limit")
	}
}
