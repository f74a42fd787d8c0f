// Package shapes is the caller guard's fixture: of its exported methods,
// only Name and Contains have no caller.
package shapes

// Shape is called through by Total.
type Shape interface{ Area() float64 }

// Square is a square of side Side.
type Square struct{ Side float64 }

// Area is called only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is used only as a method value.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Name shares its name with a field the program reads.
func (s Square) Name() string { return "square" }

// Contains shares its name with strings.Contains, which the program calls.
func (s Square) Contains(x, y float64) bool { return x <= s.Side && y <= s.Side }

// Total sums the areas of shapes.
func Total(shapes []Shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}
