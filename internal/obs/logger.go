package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Level grades event severity.
type Level int8

// Levels, in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// MarshalText makes levels render as their names in the JSON events plane.
func (l Level) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText parses a level name, so /events payloads round-trip.
func (l *Level) UnmarshalText(text []byte) error {
	switch s := string(text); s {
	case "debug":
		*l = LevelDebug
	case "info":
		*l = LevelInfo
	case "warn":
		*l = LevelWarn
	case "error":
		*l = LevelError
	default:
		return fmt.Errorf("obs: unknown level %q", s)
	}
	return nil
}

// Field is one structured key/value attached to an event.
type Field struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// F builds a field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Event is one structured log entry.
type Event struct {
	Time   time.Time `json:"time"`
	Level  Level     `json:"level"`
	Msg    string    `json:"msg"`
	Fields []Field   `json:"fields,omitempty"`
}

// String renders "LEVEL msg key=value key=value".
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Level.String())
	b.WriteByte(' ')
	b.WriteString(e.Msg)
	for _, f := range e.Fields {
		fmt.Fprintf(&b, " %s=%v", f.Key, f.Value)
	}
	return b.String()
}

// Logger is a structured, leveled event log with a bounded in-memory ring of
// recent events, built for lifecycle events (ejections, re-admissions,
// recovery attempts) rather than request logging: volume is low, but each
// event's fields matter and the admin plane serves the recent ring at
// /events. A nil *Logger is a valid no-op logger, so call sites need no
// guards. Safe for concurrent use.
type Logger struct {
	mu    sync.Mutex
	ring  []Event
	next  int
	total uint64
	sink  func(Event) // optional mirror (terminal, test log)
}

// NewLogger returns a logger retaining the last ringSize events (minimum 16)
// at LevelInfo and above. sink, when non-nil, additionally receives every
// retained event synchronously — keep it fast.
func NewLogger(ringSize int, sink func(Event)) *Logger {
	if ringSize < 16 {
		ringSize = 16
	}
	return &Logger{ring: make([]Event, ringSize), sink: sink}
}

// Log records one event; one below LevelInfo is dropped.
func (l *Logger) Log(level Level, msg string, fields ...Field) {
	if l == nil || level < LevelInfo {
		return
	}
	e := Event{Time: time.Now(), Level: level, Msg: msg, Fields: fields}
	l.mu.Lock()
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	l.total++
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		sink(e)
	}
}

// Info, Warn and Error record one event at the named level.
func (l *Logger) Info(msg string, fields ...Field)  { l.Log(LevelInfo, msg, fields...) }
func (l *Logger) Warn(msg string, fields ...Field)  { l.Log(LevelWarn, msg, fields...) }
func (l *Logger) Error(msg string, fields ...Field) { l.Log(LevelError, msg, fields...) }

// Total returns how many events were retained since creation (0 for nil).
func (l *Logger) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Recent returns up to n of the most recent events, oldest first. n <= 0
// returns everything retained. Nil-safe.
func (l *Logger) Recent(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size := len(l.ring)
	have := int(l.total)
	if have > size {
		have = size
	}
	if n <= 0 || n > have {
		n = have
	}
	out := make([]Event, 0, n)
	// Events live at positions [next-have, next); take the last n of them.
	for i := have - n; i < have; i++ {
		out = append(out, l.ring[(l.next-have+i+size)%size])
	}
	return out
}
