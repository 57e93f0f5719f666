// Command loadgen stands for the frozen load generator: its main is not a
// production root.
package main

import (
	"fmt"

	"censusfixture/lib"
)

func main() {
	fmt.Println(lib.LoadgenOnly())
}
