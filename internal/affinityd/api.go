// Package affinityd promotes the affinity allocator from an in-process
// library to a long-running placement service: a versioned HTTP/JSON
// wire API (affinityd/v1) to register simulated machine topologies, open
// interleave pools, and submit batched allocation requests carrying
// affinity hint graphs, answered with simulated base addresses and bank
// placements.
//
// The server core is built for serving, not simulating: machine lookup
// on the hot placement path is a lock-free atomic load of a
// copy-on-write registry, per-machine placement state is owned by a
// single worker goroutine that admits requests in batches, and that
// worker keeps the per-pool counters under one mutex scrapes copy them
// under. Placements themselves are produced by the exact same sys.System entry points the
// library exposes, so an identical request stream yields byte-identical
// placements through the wire API and through direct library calls (the
// differential gate in server_test.go pins this).
package affinityd

// APIVersion identifies the wire API. Every response carries it; bump
// only on incompatible changes (field additions are compatible).
const APIVersion = "affinityd/v1"

// Request kinds (AllocRequest.Kind).
const (
	// KindAffine is an affine-array allocation (core.AffineSpec).
	KindAffine = "affine"
	// KindNear is an irregular allocation near affinity addresses
	// (core.Runtime.AllocNear).
	KindNear = "near"
)

// MachineSpec is the sys.Config subset a tenant registers: the mesh
// geometry, the placement seed and policy, and an optional fault spec
// degrading the machine (the -faults grammar of faults.Parse). Zero
// values take the server defaults (Table 2 geometry, the server's
// -seed/-policy/-faults flags).
type MachineSpec struct {
	MeshW  int    `json:"mesh_w,omitempty"`
	MeshH  int    `json:"mesh_h,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Policy string `json:"policy,omitempty"` // rnd|lnr|minhop|hybrid<H> (core.ParsePolicy)
	Faults string `json:"faults,omitempty"` // faults.Parse grammar, e.g. "dead-banks=2"
}

// RegisterRequest opens a machine: POST /v1/machines.
type RegisterRequest struct {
	Machine MachineSpec `json:"machine"`
}

// RegisterResponse describes the machine the server assembled.
type RegisterResponse struct {
	Version   string `json:"version"`
	MachineID string `json:"machine_id"`
	MeshW     int    `json:"mesh_w"`
	MeshH     int    `json:"mesh_h"`
	Banks     int    `json:"banks"`
	// DeadBanks lists banks disabled by the fault spec; placements avoid
	// them exactly as the library allocator does on a degraded machine.
	DeadBanks []int `json:"dead_banks,omitempty"`
}

// OpenPoolRequest pre-opens an interleave pool:
// POST /v1/machines/{id}/pools.
type OpenPoolRequest struct {
	Interleave int `json:"interleave"`
}

// PoolInfo reports one interleave pool's identity and serving counters.
type PoolInfo struct {
	Interleave int    `json:"interleave"`
	Start      uint64 `json:"start"` // virtual base of the pool's span
	Allocs     uint64 `json:"allocs"`
	Frees      uint64 `json:"frees"`
	Bytes      uint64 `json:"bytes"` // bytes placed into the pool, cumulative
}

// OpenPoolResponse acknowledges an opened pool.
type OpenPoolResponse struct {
	Version   string   `json:"version"`
	MachineID string   `json:"machine_id"`
	Pool      PoolInfo `json:"pool"`
}

// ElemRef names one element of a previous Aff-Alloc placement — an edge
// of the affinity hint graph. Ref is the AllocRequest.ID that produced
// the placement (this batch or any earlier one on the machine). Elem
// indexes an affine array and is clamped to it; a near placement is a
// single element, so any Elem names its base. Baseline-heap placements
// cannot be referenced.
type ElemRef struct {
	Ref  string `json:"ref"`
	Elem int64  `json:"elem"`
}

// AllocRequest is one allocation in a batch. Affinity edges (AlignTo,
// Affinity) reference earlier requests by ID, so a batch carries a whole
// affinity hint graph; requests execute in order and may reference IDs
// placed earlier in the same batch.
type AllocRequest struct {
	// ID names the allocation for later AlignTo/Affinity edges and for
	// freeing. It must be unique among the machine's live allocations.
	ID string `json:"id"`
	// Kind selects affine (default) or near.
	Kind string `json:"kind,omitempty"`
	// Mode is the execution configuration (sys.ParseMode spelling:
	// In-Core, Near-L3, Aff-Alloc). Only Aff-Alloc placements carry
	// affinity; the baselines use the conventional heap. Default Aff-Alloc.
	Mode string `json:"mode,omitempty"`

	// Affine fields (KindAffine).
	ElemSize  int    `json:"elem_size,omitempty"`
	NumElem   int64  `json:"num_elem,omitempty"`
	AlignTo   string `json:"align_to,omitempty"` // ID of the array to align with
	AlignP    int    `json:"align_p,omitempty"`
	AlignQ    int    `json:"align_q,omitempty"`
	AlignX    int64  `json:"align_x,omitempty"`
	Partition bool   `json:"partition,omitempty"`

	// Near fields (KindNear).
	Size     int64     `json:"size,omitempty"`
	Affinity []ElemRef `json:"affinity,omitempty"`

	// BankProbe lists element indices whose banks the placement should
	// report (clamped to the array), so clients can verify affinity
	// without a query round-trip per element.
	BankProbe []int64 `json:"bank_probe,omitempty"`
}

// BatchAllocRequest submits allocations: POST /v1/machines/{id}/alloc.
type BatchAllocRequest struct {
	// BatchID is the optional idempotency key. A retried batch carrying
	// the ID of a batch the machine already committed returns the
	// original placements (Replayed set) instead of allocating again —
	// which is what makes client retries safe across server crashes.
	BatchID  string         `json:"batch_id,omitempty"`
	Requests []AllocRequest `json:"requests"`
}

// Placement is the layout the runtime chose for one request. A
// per-request failure sets Error and leaves the rest zero; the batch
// keeps executing.
type Placement struct {
	ID         string `json:"id"`
	Base       uint64 `json:"base"`
	ElemSize   int    `json:"elem_size"`
	ElemStride int    `json:"elem_stride"`
	NumElem    int64  `json:"num_elem"`
	// Interleave is the pool interleaving in bytes; 0 means the request
	// was served by the baseline allocator (fallback or non-AffAlloc
	// mode) with no placement control.
	Interleave int  `json:"interleave"`
	PageMapped bool `json:"page_mapped,omitempty"`
	StartBank  int  `json:"start_bank"`
	// Banks are the L3 banks of the elements named by BankProbe, in
	// request order.
	Banks []int  `json:"banks,omitempty"`
	Error string `json:"error,omitempty"`
}

// BatchAllocResponse returns one placement per request, in order.
type BatchAllocResponse struct {
	Version    string      `json:"version"`
	MachineID  string      `json:"machine_id"`
	Placements []Placement `json:"placements"`
	// Replayed marks a response served from the idempotency cache: the
	// batch was already committed and these are its original placements.
	Replayed bool `json:"replayed,omitempty"`
}

// FreeRequest releases allocations by ID: POST /v1/machines/{id}/free.
type FreeRequest struct {
	// BatchID is the optional idempotency key, as in BatchAllocRequest.
	BatchID string   `json:"batch_id,omitempty"`
	IDs     []string `json:"ids"`
}

// FreeResult reports one free outcome.
type FreeResult struct {
	ID    string `json:"id"`
	Error string `json:"error,omitempty"`
}

// FreeResponse returns one result per ID, in order.
type FreeResponse struct {
	Version   string       `json:"version"`
	MachineID string       `json:"machine_id"`
	Results   []FreeResult `json:"results"`
	// Replayed marks a response served from the idempotency cache.
	Replayed bool `json:"replayed,omitempty"`
}

// MachineInfoResponse is GET /v1/machines/{id}: identity plus serving
// counters and the open pools sorted by interleave.
type MachineInfoResponse struct {
	Version     string      `json:"version"`
	MachineID   string      `json:"machine_id"`
	Machine     MachineSpec `json:"machine"`
	Banks       int         `json:"banks"`
	LiveHandles int         `json:"live_handles"`
	Allocs      uint64      `json:"allocs"`
	Frees       uint64      `json:"frees"`
	AllocErrors uint64      `json:"alloc_errors"`
	Pools       []PoolInfo  `json:"pools,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
