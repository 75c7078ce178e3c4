package shape

import "testing"

func TestEverything(t *testing.T) {
	var tl Tally
	tl.Add(unusedHelper(Unused))
	_ = OnlyForTests()
}
