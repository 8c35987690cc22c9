package tech

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// Artifact is a versioned, content-addressed packaging of a Source —
// the deployable unit of the live graft lifecycle (package lifecycle).
// The paper's technologies load a graft once and run it unchanged
// forever; production extension systems (eBPF's atomic program
// replacement being the canonical example) treat a program as an
// immutable artifact with an identity, so a "new version of the filter"
// is a new artifact, not a mutation of the old one. Version orders a
// graft's deployments; Digest identifies the portable content, so two
// deployments of byte-identical source are recognizably the same
// program even across processes.
type Artifact struct {
	Source  Source
	Version uint64
	// Digest is a hex sha256 over the source's portable representations
	// (see SourceDigest). Computed by NewArtifact; callers constructing
	// Artifact literals should go through NewArtifact instead.
	Digest string
}

// NewArtifact packages src as version v of the graft it names.
func NewArtifact(src Source, v uint64) Artifact {
	return Artifact{Source: src, Version: v, Digest: SourceDigest(src)}
}

// SourceDigest hashes a source's portable representations: the name,
// the GEL and Tcl texts, and the HiPEC programs in entry order. The
// Compiled representation is process-resident Go code — a function
// pointer has no portable bytes — so it contributes only a presence
// marker: two sources that differ solely in their compiled closure hash
// alike, and version numbers (not digests) are what order those.
func SourceDigest(src Source) string {
	h := sha256.New()
	put := func(tag, s string) {
		// Length-prefixed fields so ("ab","c") never collides with ("a","bc").
		fmt.Fprintf(h, "%s:%d:", tag, len(s))
		h.Write([]byte(s))
	}
	put("name", src.Name)
	put("gel", src.GEL)
	put("tcl", src.Tcl)
	if src.Compiled != nil {
		put("compiled", "present")
	}
	entries := make([]string, 0, len(src.Hipec))
	for e := range src.Hipec {
		entries = append(entries, e)
	}
	sort.Strings(entries)
	for _, e := range entries {
		put("hipec/"+e, src.Hipec[e])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Ref renders the artifact's identity the way lifecycle logs print it:
// "pktfilter@v3 (2f1c99ab04d5)".
func (a Artifact) Ref() string {
	d := a.Digest
	if len(d) > 12 {
		d = d[:12]
	}
	return fmt.Sprintf("%s@v%d (%s)", a.Source.Name, a.Version, d)
}
