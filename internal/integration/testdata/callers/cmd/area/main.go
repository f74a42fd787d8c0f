// Command area prints the total area of two squares.
package main

import (
	"fmt"
	"strings"

	"fixture/internal/shapes"
)

type label struct{ Name string }

func main() {
	l := label{Name: "total"}
	perimeter := shapes.Square{Side: 2}.Perimeter
	total := shapes.Total([]shapes.Shape{shapes.Square{Side: 1}, shapes.Square{Side: 2}})
	fmt.Println(l.Name, strings.Contains(l.Name, "t"), total, perimeter())
}
