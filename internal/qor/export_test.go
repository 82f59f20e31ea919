package qor

// Transpose64 exposes the lane-shared decode's bit-matrix transpose to the
// package's external tests (TestTranspose64 checks it against the naive
// per-bit gather).
func Transpose64(a *[64]uint64) { transpose64(a) }

// CounterCircuit exposes the sequential tests' feedback counter to the
// package's external tests (TestSequencePins).
var CounterCircuit = counterCircuit
