//go:build race

package profile_test

const raceEnabled = true
