package storage

import "fmt"

// entry is one catalog row: a system's name, its constructor and the
// worker counts it can form a file system on (maxWorkers 0 = no bound).
type entry struct {
	name                   string
	build                  func() System
	minWorkers, maxWorkers int
}

// catalog lists every storage system in name order. Construct a fresh
// System per experiment: systems hold per-run state (locations, caches,
// stats).
var catalog = []entry{
	// "The GlusterFS and PVFS configurations used require at least two
	// nodes to construct a valid file system."
	{"gluster-dist", func() System { return NewGluster(Distribute) }, 2, 0},
	{"gluster-nufa", func() System { return NewGluster(NUFA) }, 2, 0},
	// Local disk cannot share files: it is the one-node baseline.
	{"local", func() System { return NewLocal() }, 1, 1},
	{"nfs", func() System { return NewNFS() }, 1, 0},
	{"nfs-m2.4xlarge", func() System { return NewNFSBigServer() }, 1, 0},
	{"nfs-sync", func() System { return NewNFSSync() }, 1, 0},
	{"pvfs", func() System { return NewPVFS() }, 2, 0},
	{"s3", func() System { return NewS3() }, 1, 0},
	{"s3-nocache", func() System { return NewS3NoCache() }, 1, 0},
	{"xtreemfs", func() System { return NewXtreemFS() }, 1, 0},
}

func lookup(name string) (entry, error) {
	for _, c := range catalog {
		if c.name == name {
			return c, nil
		}
	}
	return entry{}, fmt.Errorf("storage: unknown system %q (known: %v)", name, Names())
}

// ByName constructs a storage system by its short name.
func ByName(name string) (System, error) {
	c, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return c.build(), nil
}

// Names lists the registered system names, sorted.
func Names() []string {
	out := make([]string, len(catalog))
	for i, c := range catalog {
		out[i] = c.name
	}
	return out
}

// WorkersError reports a worker count a storage system cannot form a
// file system on.
type WorkersError struct {
	System   string
	Workers  int
	Min, Max int // Max 0 = no upper bound
}

func (e *WorkersError) Error() string {
	if e.Workers < e.Min {
		return fmt.Sprintf("storage: %s requires at least %d workers, got %d", e.System, e.Min, e.Workers)
	}
	return fmt.Sprintf("storage: %s runs on at most %d worker(s), got %d", e.System, e.Max, e.Workers)
}

// CheckWorkers is the one worker-count rule: it returns a *WorkersError
// when the named system cannot run on n workers.
func CheckWorkers(name string, n int) error {
	c, err := lookup(name)
	if err != nil {
		return err
	}
	if n < c.minWorkers || (c.maxWorkers > 0 && n > c.maxWorkers) {
		return &WorkersError{System: name, Workers: n, Min: c.minWorkers, Max: c.maxWorkers}
	}
	return nil
}

// PaperSystems lists the five systems compared in Figures 2-7, in the
// paper's legend order, excluding the local-disk baseline.
func PaperSystems() []string {
	return []string{"s3", "nfs", "gluster-nufa", "gluster-dist", "pvfs"}
}
