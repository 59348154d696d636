// Package cluster is the multi-node tier over apserve: a stateless router
// that partitions the dataset across N serving nodes and replays the
// paper's fleet model one level up. Where internal/shard scatters one query
// batch across simulated boards inside a process and merges per-board top-k
// on the host (§III-C), the router scatters /v1/search across shard
// processes over HTTP, over-fetches k per shard, and merges with the same
// (Dist, ID) tie-break — so cluster results are byte-identical to a
// single-node index over the union dataset. Around the scatter sit R-way
// replication with health-checked replica sets, hedged reads (a second
// replica fired after a configurable delay, first answer wins), bounded
// 429 retry honoring Retry-After, and best-effort routing of live
// insert/delete traffic to the owning shard's replicas.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"

	"repro/internal/serve"
)

// Manifest is the static cluster topology: shards in global-ID order, each
// with the base of its ID range and the replica endpoints serving it. The
// assignment is recorded once at cluster formation — shard i owns global
// IDs [Base_i, Base_{i+1}), and the last shard's range is open-ended so a
// live cluster can grow at the tail without re-partitioning.
type Manifest struct {
	Shards []Shard `json:"shards"`
	// Dim is the cluster-wide vector dimensionality, recorded when
	// ResolveBases cross-checks it across shards (0 when unknown). The
	// router uses it to refuse wrong-length queries locally instead of
	// scattering them.
	Dim int `json:"dim,omitempty"`
}

// Shard is one dataset partition and its replica set.
type Shard struct {
	// Base is the first global ID this shard owns. A node serves local IDs
	// [0, n); the router translates global = Base + local both ways.
	Base int `json:"base"`
	// Replicas are the base URLs of the apserve nodes serving this shard's
	// partition. Every replica must hold identical data.
	Replicas []string `json:"replicas"`
}

// Validate checks the invariants the router relies on: at least one shard,
// every shard with at least one replica URL, bases starting at 0 and
// strictly ascending.
func (m *Manifest) Validate() error {
	if m == nil || len(m.Shards) == 0 {
		return fmt.Errorf("cluster: manifest has no shards")
	}
	for i, s := range m.Shards {
		if len(s.Replicas) == 0 {
			return fmt.Errorf("cluster: shard %d has no replicas", i)
		}
		for _, r := range s.Replicas {
			if r == "" {
				return fmt.Errorf("cluster: shard %d has an empty replica URL", i)
			}
		}
		if i == 0 && s.Base != 0 {
			return fmt.Errorf("cluster: shard 0 base is %d, want 0", s.Base)
		}
		if i > 0 && s.Base <= m.Shards[i-1].Base {
			return fmt.Errorf("cluster: shard %d base %d does not ascend past shard %d base %d",
				i, s.Base, i-1, m.Shards[i-1].Base)
		}
	}
	return nil
}

// Owner returns the index of the shard owning global ID id, or -1 for a
// negative ID. Ownership is by range: the last shard whose base does not
// exceed id, with the tail shard owning everything past its base.
func (m *Manifest) Owner(id int) int {
	if id < 0 {
		return -1
	}
	// First shard with Base > id, minus one.
	i := sort.Search(len(m.Shards), func(i int) bool { return m.Shards[i].Base > id })
	return i - 1
}

// NumReplicas is the total replica endpoints across all shards.
func (m *Manifest) NumReplicas() int {
	n := 0
	for _, s := range m.Shards {
		n += len(s.Replicas)
	}
	return n
}

// ParseTopology builds a manifest from the compact flag form aprouter
// accepts: shards separated by ';', replicas within a shard by ','.
//
//	"10.0.0.1:8080,10.0.0.2:8080;10.0.0.3:8080"
//
// is two shards, the first replicated twice. Addresses without a scheme get
// "http://". Bases are left unassigned (shard i gets base -i-1 so a
// manifest that skips ResolveBases fails Validate loudly rather than
// routing every ID to shard 0).
func ParseTopology(s string) (*Manifest, error) {
	m := &Manifest{}
	for i, shardSpec := range strings.Split(s, ";") {
		shardSpec = strings.TrimSpace(shardSpec)
		if shardSpec == "" {
			return nil, fmt.Errorf("cluster: topology shard %d is empty", i)
		}
		sh := Shard{Base: -i - 1}
		if i == 0 {
			sh.Base = 0
		}
		for _, addr := range strings.Split(shardSpec, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return nil, fmt.Errorf("cluster: topology shard %d has an empty replica", i)
			}
			if !strings.Contains(addr, "://") {
				addr = "http://" + addr
			}
			sh.Replicas = append(sh.Replicas, addr)
		}
		m.Shards = append(m.Shards, sh)
	}
	return m, nil
}

// ResolveBases assigns the global-ID bases by probing each shard's
// /v1/stats node block for its local ID-space size: shard i's base is the
// sum of the ID spaces of shards 0..i-1, i.e. the ID layout of the
// concatenated union dataset. The ID space — not the live vector count —
// is what sizes a range: a live node that has seen deletes still addresses
// local IDs up to its high-water mark, and overlapping ranges would
// conflate vectors across shards. It also cross-checks that every shard
// reports the same dimensionality. The first replica of each shard that
// answers is believed; a shard none of whose replicas answer fails the
// call.
//
// With a nil hc the probes go through a clone of http.DefaultTransport whose
// connections are closed before ResolveBases returns, so no router or shard
// keeps a boot connection and the buffers behind it. A caller's client is
// used as given, its idle connections left in its pool.
func (m *Manifest) ResolveBases(ctx context.Context, hc *http.Client) error {
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		defer tr.CloseIdleConnections()
		hc = &http.Client{Transport: tr}
	}
	base := 0
	dim := 0
	for i := range m.Shards {
		var node *serve.NodeInfo
		var lastErr error
		for _, addr := range m.Shards[i].Replicas {
			c := &serve.Client{BaseURL: addr, HTTPClient: hc}
			st, err := c.Stats(ctx)
			if err != nil {
				lastErr = err
				continue
			}
			if st.Node == nil {
				lastErr = fmt.Errorf("cluster: node %s reports no identity block (want apserve with -node-id)", addr)
				continue
			}
			node = st.Node
			break
		}
		if node == nil {
			return fmt.Errorf("cluster: probing shard %d: %w", i, lastErr)
		}
		if dim == 0 {
			dim = node.Dim
		} else if node.Dim != 0 && node.Dim != dim {
			return fmt.Errorf("cluster: shard %d serves %d-bit vectors, shard 0 serves %d-bit", i, node.Dim, dim)
		}
		m.Shards[i].Base = base
		if node.IDSpace > 0 {
			base += node.IDSpace
		} else {
			base += node.Vectors
		}
	}
	m.Dim = dim
	return nil
}

// LoadManifest reads a JSON manifest from path and validates it.
func LoadManifest(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("cluster: parse manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Save writes the manifest as indented JSON — the durable record of the
// range assignment the cluster was formed with.
func (m *Manifest) Save(path string) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: encode manifest: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("cluster: write manifest: %w", err)
	}
	return nil
}
