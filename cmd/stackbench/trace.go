package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one interval of virtual time recorded at one of the benchmark's
// own call sites into the program. parent is the index of the enclosing
// span in the log (-1 for an operation's root); spans of one operation
// share op.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op         int64
}

// spanLog keeps a traced repetition's spans in memory; they are written
// out once, when the repetition has finished.
type spanLog struct {
	spans  []span
	nextOp int64
}

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, 0, 1<<18)} }

// op opens and closes a root span for one operation and returns its index.
func (l *spanLog) op(name string, start, end time.Duration) int {
	l.nextOp++
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: -1, op: l.nextOp})
	return len(l.spans) - 1
}

// child records a span caused by the root span at index parent.
func (l *spanLog) child(parent int, name string, start, end time.Duration) {
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent, op: l.spans[parent].op})
}

// absorb appends o's spans, renumbering parents and operation ids.
func (l *spanLog) absorb(o *spanLog) {
	base := len(l.spans)
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		s.op += l.nextOp
		l.spans = append(l.spans, s)
	}
	l.nextOp += o.nextOp
}

// verify asserts the span identity: the phases recorded under a commit
// tile it, so their durations sum to the commit latency exactly (virtual
// time — no tolerance).
func (l *spanLog) verify() error {
	sum := make(map[int]time.Duration)
	for _, s := range l.spans {
		if s.parent >= 0 {
			sum[s.parent] += s.end - s.start
		}
	}
	for i, s := range l.spans {
		if s.parent >= 0 || s.name != "commit" {
			continue
		}
		if got := sum[i]; got != s.end-s.start {
			return fmt.Errorf("span identity broken for op %d: phases sum to %v, commit latency %v", s.op, got, s.end-s.start)
		}
	}
	return nil
}

// write stores the log as a JSON array under dir.
func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "[")
	for i, s := range l.spans {
		sep := ","
		if i == len(l.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op_id":%d}%s`+"\n",
			i, s.name, int64(s.start), int64(s.end), s.parent, s.op, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
