// Package oracle stands for an exempt package: its list entries need
// no reason.
package oracle

// Reference is called by nothing.
func Reference() int { return 5 }
