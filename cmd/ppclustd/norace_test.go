//go:build !race

package main

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
