//go:build !race

package parsvd_test

const raceEnabled = false
