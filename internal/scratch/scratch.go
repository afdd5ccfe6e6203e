// Package scratch holds the one buffer-reuse idiom of the runtime's
// caller-owned workspaces (the partition arena, the GeoCoL assembler,
// the schedule Builder, the translation-table Workspace).
package scratch

// Grow returns (*buf)[:n], reallocating only when the capacity is
// short. The contents are unspecified: callers that need zeroed
// contents clear explicitly — most hot-path buffers are fully
// overwritten before use, and making that explicit at the use site is
// the contract that keeps reuse safe.
func Grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
