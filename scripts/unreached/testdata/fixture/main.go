// Command fixture is the one root of the module that the unreached
// tool's test scans.
package main

import "fixture/internal/lib"

func main() {
	f := func() int { return lib.ClosureOnly() }
	t := &lib.T{}
	var n lib.Node = lib.Leaf{}
	_ = n
	var s lib.Stack[int]
	s.Push(f() + t.Ptr() + lib.T{}.Val())
	println(len(lib.Map([]int{1}, func(x int) int { return x + 1 })), len(s.Items))
}
