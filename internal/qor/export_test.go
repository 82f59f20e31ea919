package qor

// CounterCircuit exposes the sequential tests' feedback counter to the
// package's external tests (TestSequencePins).
var CounterCircuit = counterCircuit
