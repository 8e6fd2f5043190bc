package main

import (
	"fmt"
	"io"
	"runtime"

	"github.com/mobilegrid/adf/internal/experiment"
	"github.com/mobilegrid/adf/internal/sanitize"
)

// digestWorkerCounts is the worker-count matrix the -sanitize and
// -shard-digest gates compare: the sequential reference, a fixed
// parallel count, and whatever this machine's scheduler limit is,
// deduplicated.
func digestWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// runDigestCompare is the -sanitize and -shard-digest mode: the pipeline
// runs the configured scenario once per worker count in tick lockstep
// and the per-tick state digests are compared for bit-identity, with
// every adfcheck runtime invariant armed along the way. -sanitize runs
// the global shape, -shard-digest the region shape. The mode refuses to
// run in a default build — the no-op sanitizer would make the "every
// invariant held" claim vacuous. `make check` and `make check-sharded`
// are the CI gates built on it.
func runDigestCompare(w io.Writer, cfg experiment.Config, regionShape bool) error {
	mode, shape := "sanitize", "global"
	cfg.ShardWorkers = 0
	if regionShape {
		mode, shape = "shard-digest", "region"
		cfg.ShardWorkers = 1
	}
	if !sanitize.Enabled {
		return fmt.Errorf("the sanitizer is not compiled in: rebuild with -tags adfcheck (e.g. `go run -tags adfcheck ./cmd/adfbench -%s`)", mode)
	}
	counts := digestWorkerCounts()
	ticks, err := cfg.CompareShardDigests(counts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d ticks compared, %s shape at %v workers: state digests bit-identical, every invariant held\n", mode, ticks, shape, counts)
	return nil
}
