// Package words is imported by cmd/tool.
package words

import "strings"

// Fields splits text at single spaces.
func Fields(text string) []string { return strings.Split(text, " ") }

// Splitter cuts text at Sep. Only a test calls its Split, although Fields
// selects a Split of its own.
type Splitter struct{ Sep string }

// Split returns the parts of text between the separators.
func (s Splitter) Split(text string) []string { return strings.SplitN(text, s.Sep, -1) }

// Namer is what Describe reads.
type Namer interface{ Name() string }

// Describe brackets n's name.
func Describe(n Namer) string { return "<" + n.Name() + ">" }

// Word is a Namer; nothing names its Name method directly.
type Word string

// Name returns the word itself.
func (w Word) Name() string { return string(w) }

// Tally counts words. cmd/tool bumps N, hands Step to a flag and selects
// Reset on Mark; only a test sets Limit.
type Tally struct {
	N, Step, Limit int
	Mark           Mark
}

// Mark is a position a pointer method moves.
type Mark struct{ At int }

// Reset moves m back to the start.
func (m *Mark) Reset() { m.At = 0 }
