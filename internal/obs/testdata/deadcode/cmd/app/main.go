// Command app is the fixture's one non-test caller of package shape.
package main

import (
	"fmt"

	"fixture/internal/shape"
)

func main() {
	var c shape.Counter
	c.Add(shape.Live)
	var t shape.Tally
	var s shape.Shape = shape.Square{Side: 2}
	fmt.Println(s.Area(), t.Count(), shape.Celsius(21))
}
