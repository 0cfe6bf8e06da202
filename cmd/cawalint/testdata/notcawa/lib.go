// Package lib compiles fine and lives outside every rule scope (its
// module is not cawa), so cawalint reports nothing on it.
package lib

// Answer is the only symbol.
func Answer() int { return 42 }
