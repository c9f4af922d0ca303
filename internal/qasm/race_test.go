//go:build race

package qasm

func init() { raceEnabled = true }
