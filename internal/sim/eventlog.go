package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"bgsched/internal/job"
	"bgsched/internal/torus"
)

// LoggedEvent is one line of the structured simulation event log: a
// flat JSON object per state change, for post-hoc analysis with
// standard tooling (jq, dataframes). Fields are omitted when not
// applicable to the event kind.
type LoggedEvent struct {
	// Seq is a monotonically increasing sequence number, starting at 1
	// for the first logged event of a run. Simultaneous events share a
	// timestamp but never a sequence number, so downstream pipelines
	// can order, join and detect gaps without relying on line numbers.
	Seq  uint64  `json:"seq"`
	Time float64 `json:"t"`
	Kind string  `json:"kind"` // arrival|start|finish|failure|kill|checkpoint|migrate|nodeup
	Job  int64   `json:"job,omitempty"`
	Node int     `json:"node,omitempty"`
	Part string  `json:"part,omitempty"`
	// Free is the number of free nodes after the event was applied.
	// Deliberately not omitempty: a fully packed machine must log
	// "free":0 explicitly, since jq-style pipelines assume presence.
	Free int `json:"free"`
	// Queue is the number of waiting jobs after the event; emitted
	// even when zero, for the same reason as Free.
	Queue int `json:"queue"`
}

// eventLogger serialises simulation events to a writer. A nil logger
// discards everything, so call sites need no guards.
//
// Events are formatted by hand into a reused buffer instead of going
// through json.Encoder: the reflective marshal costs several heap
// allocations per event, which dominates the simulator's hot loop when
// a log is attached. The hand encoder is pinned byte-identical to
// encoding/json by TestEventLogEncodingMatchesStdlib, so downstream
// consumers (and the golden digests) cannot tell the difference.
type eventLogger struct {
	w   io.Writer
	buf []byte // one encoded line, reused across events
	seq uint64
	err error
}

func newEventLogger(w io.Writer) *eventLogger {
	if w == nil {
		return nil
	}
	return &eventLogger{w: w}
}

// log stamps the next sequence number on the event and writes it,
// remembering the first encoding error.
func (l *eventLogger) log(e LoggedEvent, part *torus.Partition) {
	if l == nil || l.err != nil {
		return
	}
	l.seq++
	e.Seq = l.seq
	l.buf = appendLoggedEvent(l.buf[:0], &e, part)
	_, l.err = l.w.Write(l.buf)
}

// appendLoggedEvent encodes e exactly as json.Encoder would — same
// field order, same omitempty behaviour, same number and string
// formats, trailing newline — appending to b. A non-nil part is
// formatted in place of e.Part, saving the String() allocation;
// partition strings are digits, parens, commas, '+' and 'x', none of
// which encoding/json escapes, so raw emission inside quotes is
// byte-identical to quoting the equivalent Go string.
func appendLoggedEvent(b []byte, e *LoggedEvent, part *torus.Partition) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"t":`...)
	b = appendJSONFloat(b, e.Time)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, e.Kind)
	if e.Job != 0 {
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, e.Job, 10)
	}
	if e.Node != 0 {
		b = append(b, `,"node":`...)
		b = strconv.AppendInt(b, int64(e.Node), 10)
	}
	if part != nil {
		b = append(b, `,"part":"`...)
		b = appendPartition(b, *part)
		b = append(b, '"')
	} else if e.Part != "" {
		b = append(b, `,"part":`...)
		b = appendJSONString(b, e.Part)
	}
	b = append(b, `,"free":`...)
	b = strconv.AppendInt(b, int64(e.Free), 10)
	b = append(b, `,"queue":`...)
	b = strconv.AppendInt(b, int64(e.Queue), 10)
	return append(b, '}', '\n')
}

// appendJSONFloat matches encoding/json's float64 formatting: shortest
// representation, 'f' form except for very small or very large
// magnitudes, with the exponent's leading zero trimmed ("1e-07" →
// "1e-7"). Simulation clocks are always finite, so the NaN/Inf error
// path json.Encoder has is unreachable here.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const jsonHex = "0123456789abcdef"

// appendJSONString quotes s the way json.Encoder does with its default
// HTML escaping: control characters, quotes, backslashes and <, >, &
// are escaped; invalid UTF-8 becomes U+FFFD; U+2028/U+2029 are escaped
// for JS embedding. Event kinds and partition strings are plain ASCII,
// so the fast path is a straight copy.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// flushErr surfaces any write error at the end of the run.
func (l *eventLogger) flushErr() error {
	if l == nil || l.err == nil {
		return nil
	}
	return fmt.Errorf("sim: event log: %w", l.err)
}

// logEvent is the simulator's convenience wrapper filling the common
// fields.
func (s *Simulator) logEvent(kind string, id job.ID, node int, part *torus.Partition) {
	if s.elog == nil {
		return
	}
	e := LoggedEvent{
		Time:  s.k.now,
		Kind:  kind,
		Job:   int64(id),
		Node:  node,
		Free:  s.grid.FreeCount(),
		Queue: s.queue.Len(),
	}
	s.elog.log(e, part)
}

// appendPartition formats p as Partition.String does —
// "(x,y,z)+XxYxZ" — without the fmt round trip.
func appendPartition(b []byte, p torus.Partition) []byte {
	b = append(b, '(')
	b = strconv.AppendInt(b, int64(p.Base.X), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.Base.Y), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.Base.Z), 10)
	b = append(b, ')', '+')
	b = strconv.AppendInt(b, int64(p.Shape.X), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(p.Shape.Y), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(p.Shape.Z), 10)
	return b
}

// ReadEventLog parses a JSONL event log written via Config.EventLog.
func ReadEventLog(r io.Reader) ([]LoggedEvent, error) {
	dec := json.NewDecoder(r)
	var out []LoggedEvent
	for dec.More() {
		var e LoggedEvent
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("sim: event log line %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
	return out, nil
}
