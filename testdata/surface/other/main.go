// Command other is the second module of the surface gate's test fixture,
// in the place bench/ takes for the repository.
package main

import "fixture/internal/a"

func main() { println(a.OnlyOther() + a.Apply(a.Config{FromOther: 1})) }
