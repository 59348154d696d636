//go:build race

package knn

const raceEnabled = true
