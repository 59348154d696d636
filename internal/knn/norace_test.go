//go:build !race

package knn

const raceEnabled = false
