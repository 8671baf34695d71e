package decision

import (
	"encoding/json"
	"io"
	"sort"
)

// oracle is the journal as it was before records were stored once: every
// record is copied by value into the ring and into each linked chain, and
// the copies share the caller's slices. FuzzJournal holds the Journal's
// exports to this one's, byte for byte.
type oracle struct {
	seq        uint64
	ring       []Record
	next       int
	total      uint64
	chains     map[string][]Record
	chainOrder []string
}

func newOracle() *oracle { return &oracle{chains: map[string][]Record{}} }

func (o *oracle) record(r Record) {
	o.seq++
	r.Seq = o.seq
	if len(o.ring) < maxRecords {
		o.ring = append(o.ring, r)
	} else {
		o.ring[o.next] = r
		o.next = (o.next + 1) % maxRecords
	}
	o.total++
	if r.Request != "" {
		o.link(r.Request, r)
	}
	for _, id := range r.Requests {
		if id != r.Request {
			o.link(id, r)
		}
	}
}

func (o *oracle) link(id string, r Record) {
	chain, ok := o.chains[id]
	if !ok {
		for len(o.chainOrder) >= maxRequests {
			delete(o.chains, o.chainOrder[0])
			o.chainOrder = o.chainOrder[1:]
		}
		o.chainOrder = append(o.chainOrder, id)
	}
	if len(chain) >= maxPerChain {
		chain = append(chain[:1], chain[2:]...)
	}
	o.chains[id] = append(chain, r)
}

func (o *oracle) writeJSON(w io.Writer) error {
	e := Export{SchemaVersion: SchemaVersion, Total: o.total, Records: []Record{}}
	for i := range o.ring {
		e.Records = append(e.Records, o.ring[(o.next+i)%len(o.ring)])
	}
	e.Chains = make([]ChainExport, 0, len(o.chainOrder))
	for _, id := range o.chainOrder {
		e.Chains = append(e.Chains, ChainExport{Request: id, Records: o.chains[id]})
	}
	sort.Slice(e.Chains, func(i, k int) bool { return e.Chains[i].Request < e.Chains[k].Request })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}
