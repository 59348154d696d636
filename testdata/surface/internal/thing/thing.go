// Package thing declares one name per rule of the surface census; cmd/app
// is the program that reaches them.
package thing

// Config's fields are each reached by the program in one way.
type Config struct {
	Literal  int // written only as a struct literal key: reported
	Assigned int // written only by x.F = v: reported
	Added    int // x.F += v reads it
	Counted  int // x.F++ reads it
	Pointed  int // &x.F reads it
	Read     int // read by value
}

// Wire is what the program json-encodes; every field is tagged.
type Wire struct {
	Tagged  int `json:"tagged"` // written only, but encoding/json reads it
	Skipped int `json:"-"`      // encoding/json skips it: reported
}

// Name's String satisfies fmt.Stringer, which the program calls without
// naming it; Shout satisfies nothing and nothing calls it: reported.
type Name string

func (n Name) String() string { return string(n) }

func (n Name) Shout() string { return string(n) + "!" }

// Unused is referenced by no program: reported.
func Unused() {}

// tally's unexported fields are held to the same rule as exported ones.
type tally struct {
	stamped int // written only as a struct literal key: reported
	hits    int // read back by Count
}

// Count counts one call on a fresh tally.
func Count() int {
	t := tally{stamped: 1}
	t.hits++
	return t.hits
}
