package main

import (
	"encoding/json"
	"fmt"
	"os"

	"fixture/internal/thing"
)

func main() {
	c := thing.Config{Literal: 1}
	c.Assigned = 3
	c.Added += 4
	c.Counted++
	p := &c.Pointed
	*p = 5
	fmt.Println(c.Read, thing.Name("x"), thing.Count())
	w := thing.Wire{Tagged: 2, Skipped: 6}
	if err := json.NewEncoder(os.Stdout).Encode(w); err != nil {
		os.Exit(1)
	}
}
