// Package shape plants the cases the dead-declaration rule must tell
// apart. cmd/app is its one non-test caller; shape_test.go and the
// shapetest support package reference everything, and count for nothing.
package shape

import "fmt"

// Live is read by cmd/app.
var Live = 2

// Unused is read by no non-test file.
var Unused = 1

// Shape is the interface cmd/app calls through.
type Shape interface{ Area() float64 }

// Square's Area runs only through Shape.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Celsius's String runs only through fmt.Stringer.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// Counter.Add is called by cmd/app.
type Counter struct{ n int }

func (c *Counter) Add(v int) { c.n += v }

// Tally.Add shares the live method's name and is called by nothing.
type Tally struct{ n int }

func (t *Tally) Add(v int) { t.n += v }

// Count keeps Tally itself alive.
func (t *Tally) Count() int { return t.n }

// unusedHelper calls only itself.
func unusedHelper(n int) int {
	if n == 0 {
		return 0
	}
	return unusedHelper(n - 1)
}

// OnlyForTests is called by the shapetest support package alone.
func OnlyForTests() int { return Live }
