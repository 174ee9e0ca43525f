//go:build race

package main

// raceEnabled reports a -race build, whose sync.Pool drops some Puts on
// purpose: allocation bounds that rely on pooling hold only without it.
const raceEnabled = true
