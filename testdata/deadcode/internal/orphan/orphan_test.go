package orphan

import "testing"

func TestTable(t *testing.T) {
	if len(table) != Size {
		t.Fatal(len(table))
	}
}
