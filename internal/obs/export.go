package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Record types. A span produces exactly two records: a start and an end.
// A note (Note) is a single point record under a live span.
const (
	RecordStart = "start"
	RecordEnd   = "end"
	RecordNote  = "note"
)

// Record is one trace event in the JSON-lines export. Start and note
// records carry the name, parent id (0 for roots) and attributes; end
// records carry the attributes accumulated over the span's life.
type Record struct {
	Type   string         `json:"type"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name,omitempty"`
	TimeNS int64          `json:"t"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// WriteJSONL writes every record emitted so far to w, one JSON object
// per line, and returns the first write error. Live consumers use
// Subscribe instead.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range t.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Records returns a copy of every record emitted so far.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Record(nil), t.records...)
}

// ReadRecords decodes a JSON-lines trace (the WriteJSONL format). Note that
// JSON decoding widens integer attribute values to float64.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckWellFormed verifies the structural invariants of a span trace:
// every end matches exactly one prior start, ids are unique, children
// and notes start inside a live parent and children end before it,
// timestamps do not run backwards within a span, and no span is left
// open at the end.
func CheckWellFormed(recs []Record) error {
	started := map[int64]Record{}
	ended := map[int64]bool{}
	parentOf := map[int64]int64{}
	notes := map[int64]bool{}
	for i, rec := range recs {
		if rec.Type == RecordStart || rec.Type == RecordNote {
			if _, dup := started[rec.ID]; dup || notes[rec.ID] {
				return fmt.Errorf("obs: record %d: id %d started twice", i, rec.ID)
			}
			if rec.Parent != 0 {
				if _, ok := started[rec.Parent]; !ok {
					return fmt.Errorf("obs: record %d: %s %d under unknown parent %d", i, rec.Type, rec.ID, rec.Parent)
				}
				if ended[rec.Parent] {
					return fmt.Errorf("obs: record %d: %s %d under already-ended parent %d", i, rec.Type, rec.ID, rec.Parent)
				}
			}
		}
		switch rec.Type {
		case RecordStart:
			started[rec.ID] = rec
			parentOf[rec.ID] = rec.Parent
		case RecordNote:
			notes[rec.ID] = true
		case RecordEnd:
			st, ok := started[rec.ID]
			if !ok {
				return fmt.Errorf("obs: record %d: end of span %d without a start", i, rec.ID)
			}
			if ended[rec.ID] {
				return fmt.Errorf("obs: record %d: span %d ended twice", i, rec.ID)
			}
			if rec.TimeNS < st.TimeNS {
				return fmt.Errorf("obs: record %d: span %d ends before it starts", i, rec.ID)
			}
			for cid, p := range parentOf {
				if p == rec.ID && !ended[cid] {
					return fmt.Errorf("obs: record %d: span %d ends with child %d still open", i, rec.ID, cid)
				}
			}
			ended[rec.ID] = true
		default:
			return fmt.Errorf("obs: record %d: unknown type %q", i, rec.Type)
		}
	}
	for id := range started {
		if !ended[id] {
			return fmt.Errorf("obs: span %d never ended", id)
		}
	}
	return nil
}

// --- Summary tree ----------------------------------------------------------

type summaryNode struct {
	rec      Record
	endNS    int64
	attrs    map[string]any
	children []*summaryNode
}

// Summary renders the tracer's spans as an indented tree with durations
// and attributes — the human-readable companion to the JSONL export.
func (t *Tracer) Summary() string { return SummarizeRecords(t.Records()) }

// SummarizeRecords renders a span tree from raw records (e.g. a decoded
// JSONL trace). Unended spans are annotated rather than dropped; notes
// are left out.
func SummarizeRecords(recs []Record) string {
	nodes := map[int64]*summaryNode{}
	var roots []*summaryNode
	for _, rec := range recs {
		switch rec.Type {
		case RecordStart:
			n := &summaryNode{rec: rec, endNS: -1, attrs: map[string]any{}}
			for k, v := range rec.Attrs {
				n.attrs[k] = v
			}
			nodes[rec.ID] = n
			if p := nodes[rec.Parent]; rec.Parent != 0 && p != nil {
				p.children = append(p.children, n)
			} else {
				roots = append(roots, n)
			}
		case RecordEnd:
			if n := nodes[rec.ID]; n != nil {
				n.endNS = rec.TimeNS
				for k, v := range rec.Attrs {
					n.attrs[k] = v
				}
			}
		}
	}
	var sb strings.Builder
	for _, r := range roots {
		writeSummary(&sb, r, 0)
	}
	return sb.String()
}

func writeSummary(sb *strings.Builder, n *summaryNode, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.rec.Name)
	keys := make([]string, 0, len(n.attrs))
	for k := range n.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(sb, " %s=%v", k, n.attrs[k])
	}
	if n.endNS >= 0 {
		d := time.Duration(n.endNS - n.rec.TimeNS)
		fmt.Fprintf(sb, "  [%v]", d.Round(10*time.Microsecond))
	} else {
		sb.WriteString("  [unended]")
	}
	sb.WriteByte('\n')
	for _, c := range n.children {
		writeSummary(sb, c, depth+1)
	}
}
