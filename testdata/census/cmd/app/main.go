// Command app is the fixture's production main.
package main

import (
	"fmt"

	"censusfixture/lib"
)

func main() {
	fmt.Println(lib.Live(), lib.NewSquare(2).Area())
}
