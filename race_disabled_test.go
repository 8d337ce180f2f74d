//go:build !race

package eagr

// raceEnabled reports whether the race detector is instrumenting this
// build; exact allocation-count assertions are skipped under it (the
// instrumentation itself allocates).
const raceEnabled = false
