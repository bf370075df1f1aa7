package obs

import "strings"

// WallPrefix marks instrument names that belong to the wall-clock
// observability plane: measurements of the host machine (barrier waits,
// cell busy time, scheduler nanos) rather than of the simulated physics.
// Wall-clock instruments live in the same registries as deterministic
// ones for convenience, but every deterministic artifact — result
// digests, checkpoint bytes, cross-shard snapshot comparisons — must
// filter them out, because their values differ run to run on the same
// seed. IsWallClock is that filter.
const WallPrefix = "wall."

// IsWallClock reports whether the named instrument belongs to the
// wall-clock plane and must therefore be excluded from deterministic
// digests, checkpoints, and byte-comparison tests. It covers the
// explicit "wall." domain plus the "runtime." gauges (GC and heap
// readings taken at sample ticks), which predate the wall domain but
// are nondeterministic for the same reason.
func IsWallClock(name string) bool {
	return strings.HasPrefix(name, WallPrefix) || strings.HasPrefix(name, "runtime.")
}
