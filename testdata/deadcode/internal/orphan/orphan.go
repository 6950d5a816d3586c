// Package orphan is imported by no non-test file. Its one exported name is
// used inside the package, so only the package itself is test-only.
package orphan

// Size is the length of table.
const Size = 4

var table [Size]int
