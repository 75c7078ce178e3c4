// Package shapetest is a test support package: its declarations are not
// checked, and its references keep nothing alive.
package shapetest

import "fixture/internal/shape"

// Helper is called by no one, and is not reported.
func Helper() int { return shape.OnlyForTests() + shape.Unused }
