package dispatch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

const (
	// manifestVersion is bumped on incompatible layout changes; resume
	// refuses manifests written by a different version.
	manifestVersion = 1
	// ManifestFile is the manifest file name inside a sweep directory.
	ManifestFile = "manifest.json"
	// ShardsDir is the subdirectory holding per-shard result files.
	ShardsDir = "shards"
)

// ShardPlan is one named work unit: a contiguous slice of the grid.
type ShardPlan struct {
	// ID is the shard index (0-based, dense).
	ID int `json:"id"`
	// Name labels the shard in file names and logs ("shard-003-gcc").
	Name string `json:"name"`
	// Specs are the jobs of the shard.
	Specs []JobSpec `json:"specs"`
}

// Manifest describes one sweep: its shard plan plus a hash of the full grid
// so a resumed sweep can detect that it is being pointed at a different
// grid's checkpoint directory.
type Manifest struct {
	// Version is the manifest format version.
	Version int `json:"version"`
	// GridHash is the hash of the ordered job grid (GridHash function).
	GridHash string `json:"grid_hash"`
	// Shards is the shard plan.
	Shards []ShardPlan `json:"shards"`
}

// NumJobs returns the total job count over all shards.
func (m *Manifest) NumJobs() int {
	n := 0
	for _, sp := range m.Shards {
		n += len(sp.Specs)
	}
	return n
}

// Specs returns the full grid flattened in shard order (the enumeration
// order of the grid the manifest was planned from).
func (m *Manifest) Specs() []JobSpec {
	specs := make([]JobSpec, 0, m.NumJobs())
	for _, sp := range m.Shards {
		specs = append(specs, sp.Specs...)
	}
	return specs
}

// GridHash hashes the ordered grid: the same job list in the same order
// always produces the same hash, and any change to a job or to the order
// changes it. Shard plans with different shard counts over the same grid
// share the hash (resume keeps the plan stored in the manifest).
func GridHash(specs []JobSpec) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, s := range specs {
		// Encode cannot fail for a struct of plain fields; the error is
		// checked anyway to keep the hash honest if JobSpec ever grows one.
		if err := enc.Encode(s); err != nil {
			panic(fmt.Sprintf("dispatch: hashing job spec: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// PlanShards partitions the grid into at most n shards. Jobs sharing a
// workload are kept contiguous (the grid is enumerated workload-major), so
// most shards generate each workload once; the split points balance job
// counts. n <= 0 selects one shard per distinct workload. The plan is
// deterministic: the same specs and n always produce the same shards.
func PlanShards(specs []JobSpec, n int) ([]ShardPlan, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("dispatch: cannot plan an empty grid")
	}
	if n <= 0 {
		seen := make(map[string]struct{})
		for _, s := range specs {
			seen[s.WorkloadKey()] = struct{}{}
		}
		n = len(seen)
	}
	if n > len(specs) {
		n = len(specs)
	}
	plans := make([]ShardPlan, 0, n)
	// Contiguous chunks of ceil-balanced size: shard i gets jobs
	// [i*len/n, (i+1)*len/n), which differs from perfectly even by at most
	// one job and never reorders the grid.
	for i := 0; i < n; i++ {
		lo := i * len(specs) / n
		hi := (i + 1) * len(specs) / n
		if lo == hi {
			continue
		}
		chunk := specs[lo:hi:hi]
		plans = append(plans, ShardPlan{
			ID:    len(plans),
			Name:  fmt.Sprintf("shard-%03d-%s", len(plans), chunk[0].Profile),
			Specs: chunk,
		})
	}
	return plans, nil
}

// NewManifest plans the grid into shards and wraps it in a manifest.
func NewManifest(specs []JobSpec, nShards int) (*Manifest, error) {
	if err := checkUniqueNames(specs); err != nil {
		return nil, err
	}
	shards, err := PlanShards(specs, nShards)
	if err != nil {
		return nil, err
	}
	return &Manifest{Version: manifestVersion, GridHash: GridHash(specs), Shards: shards}, nil
}

// encodeManifest renders the manifest in its on-store JSON form. Both
// Store backends commit exactly these bytes, so a sweep checkpointed
// through one store can be finished through the other.
func encodeManifest(m *Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dispatch: encoding manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// parseManifest decodes and validates manifest bytes from any store backend.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dispatch: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("dispatch: manifest version %d, this build understands %d", m.Version, manifestVersion)
	}
	for i, sp := range m.Shards {
		if sp.ID != i {
			return nil, fmt.Errorf("dispatch: manifest shard %d has id %d", i, sp.ID)
		}
		if len(sp.Specs) == 0 {
			return nil, fmt.Errorf("dispatch: manifest shard %s is empty", sp.Name)
		}
	}
	return &m, nil
}
