//go:build race

package emu_test

const raceEnabled = true
