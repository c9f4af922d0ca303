package core

// GroupSpan and GroupAt expose the stream's compile-group rule to the
// external tests.
var GroupSpan = groupSpan

// GroupAt returns the compile group Stream starts at index i of s.
func GroupAt(s Source, i int64) []int64 { return s.group(i) }

// FreeScratches reports how many idle scratches tf's free list holds.
func FreeScratches(tf *Toolflow) int { return len(tf.shared.scratches) }
