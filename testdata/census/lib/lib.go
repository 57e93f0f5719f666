// Package lib plants one case of each kind the code census tells apart.
package lib

// Live is called from the production main.
func Live() int { return 1 }

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 2 }

// LoadgenOnly is called only from the loadgen main.
func LoadgenOnly() int { return 3 }

// deadA is the only caller of deadB, and nothing calls deadA.
func deadA() int { return deadB() }

func deadB() int { return 4 }

// Shape is the interface through which square.Area is reached.
type Shape interface{ Area() float64 }

type square struct{ side float64 }

// NewSquare returns a square as a Shape.
func NewSquare(side float64) Shape { return square{side} }

// Area is called only through Shape.
func (s square) Area() float64 { return s.side * s.side }

// Perimeter satisfies no interface, and nothing calls it.
func (s square) Perimeter() float64 { return 4 * s.side }
