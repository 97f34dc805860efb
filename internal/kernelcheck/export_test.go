package kernelcheck

import "webgpu/internal/minicuda"

// Views of the engine's internals for the external tests.

// FixpointCap is how many non-recording passes a loop's fixpoint makes
// at most.
const FixpointCap = fixpointCap

// CacheKeys returns the keys an engine stores prog's functions under:
// one for every function not on, or calling into, a call cycle.
func CacheKeys(prog *minicuda.Program) []string {
	var keys []string
	for _, k := range computeKeys(prog, calleeMap(prog)) {
		keys = append(keys, k)
	}
	return keys
}

// CountWalks analyzes prog and returns how often the walker visited each
// statement.
func CountWalks(prog *minicuda.Program) map[minicuda.Stmt]int {
	visits := map[minicuda.Stmt]int{}
	analyzeProgram(prog, nil, func(s minicuda.Stmt) { visits[s]++ })
	return visits
}

// Entries is how many function results inc holds.
func Entries(inc *Incremental) int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return len(inc.funcs)
}
