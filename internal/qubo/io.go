package qubo

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteTo serializes the model in a line-oriented text format:
//
//	qubo <n>
//	offset <v>        (omitted when zero)
//	l <i> <v>         one line per nonzero linear term
//	q <i> <j> <v>     one line per nonzero quadratic term
//
// The format is deterministic (sorted indices) so serialized models diff
// cleanly. It implements io.WriterTo.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "qubo %d\n", m.n)); err != nil {
		return n, err
	}
	if m.offset != 0 {
		if err := count(fmt.Fprintf(bw, "offset %s\n", formatFloat(m.offset))); err != nil {
			return n, err
		}
	}
	for i, v := range m.diag {
		if v == 0 {
			continue
		}
		if err := count(fmt.Fprintf(bw, "l %d %s\n", i, formatFloat(v))); err != nil {
			return n, err
		}
	}
	for _, t := range m.Terms() {
		if err := count(fmt.Fprintf(bw, "q %d %d %s\n", t.I, t.J, formatFloat(t.W))); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MaxReadVars bounds the variable count a model text may declare. The
// header alone sizes the model's arrays, and the text arrives from
// untrusted clients (annealerd's /v1/sample and /v1/cache bodies), so an
// unbounded count lets a 15-byte body allocate gigabytes. 1<<20 is
// about the number of linear terms a 16 MiB body can hold.
const MaxReadVars = 1 << 20

// Read parses a model previously written by WriteTo.
func Read(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var m *Model
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "qubo":
			if len(fields) != 2 {
				return nil, fmt.Errorf("qubo: line %d: malformed header", line)
			}
			if m != nil {
				// A second header would drop every term read so far, so
				// the text would name one model and parse as another.
				return nil, fmt.Errorf("qubo: line %d: repeated header", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > MaxReadVars {
				return nil, fmt.Errorf("qubo: line %d: bad variable count %q", line, fields[1])
			}
			m = New(n)
		case "offset":
			if m == nil {
				return nil, fmt.Errorf("qubo: line %d: offset before header", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("qubo: line %d: malformed offset", line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("qubo: line %d: %v", line, err)
			}
			m.offset = v
		case "l":
			if m == nil {
				return nil, fmt.Errorf("qubo: line %d: term before header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("qubo: line %d: malformed linear term", line)
			}
			i, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil || i < 0 || i >= m.n {
				return nil, fmt.Errorf("qubo: line %d: bad linear term %q", line, text)
			}
			m.SetLinear(i, v)
		case "q":
			if m == nil {
				return nil, fmt.Errorf("qubo: line %d: term before header", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("qubo: line %d: malformed quadratic term", line)
			}
			i, err1 := strconv.Atoi(fields[1])
			j, err2 := strconv.Atoi(fields[2])
			v, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil || i < 0 || j < 0 || i >= m.n || j >= m.n || i == j {
				return nil, fmt.Errorf("qubo: line %d: bad quadratic term %q", line, text)
			}
			m.SetQuadratic(i, j, v)
		default:
			return nil, fmt.Errorf("qubo: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("qubo: missing header")
	}
	return m, nil
}
