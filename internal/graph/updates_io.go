package graph

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Update-stream I/O: the wire formats edge update batches travel in — NDJSON
// (one {"src","dst","weight","del"} object per line) and an op-prefixed text
// edge list ("add src dst [weight]" / "del src dst", bare "src dst [weight]"
// lines defaulting to add). Both are line-oriented so batches stream through
// HTTP bodies and files without framing.

// updateRecord is the NDJSON wire form of one Update[float32]. Weight is a
// pointer so an absent field defaults to 1 (the unweighted convention the
// text loaders share) while an explicit 0 stays 0.
type updateRecord struct {
	Src    uint32   `json:"src"`
	Dst    uint32   `json:"dst"`
	Weight *float32 `json:"weight,omitempty"`
	Del    bool     `json:"del,omitempty"`
}

// ParseUpdatesNDJSON parses an NDJSON update stream: exactly one object per
// line. Blank lines are skipped; anything after a line's object is an error
// (a second object glued to the first would otherwise be acknowledged and
// dropped); errors carry 1-based line numbers.
//
// What is accepted, and with what value, is decided by encoding/json decoding
// the line into updateRecord with unknown fields disallowed. A line in the
// plain form every writer emits is recognized by parsePlainUpdate in one pass
// over its bytes — no decoder, no reflection, no allocation — and everything
// else (escaped, differently cased or repeated keys, nulls, numbers written
// another way, anything malformed) takes the decoder, so the two cannot
// disagree on what a line means: the quick pass only ever says "this is
// plainly X" or "not for me".
func ParseUpdatesNDJSON(data []byte) ([]Update[float32], error) {
	ups := make([]Update[float32], 0, bytes.Count(data, []byte{'\n'})+1)
	lineno := 0
	for len(data) > 0 {
		lineno++
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		up, ok := parsePlainUpdate(line)
		if !ok {
			var err error
			if up, err = decodeUpdate(line); err != nil {
				return nil, fmt.Errorf("updates line %d: %v", lineno, err)
			}
		}
		ups = append(ups, up)
	}
	return ups, nil
}

// decodeUpdate is the authority on one NDJSON line: a strict encoding/json
// decode of exactly one value.
func decodeUpdate(line []byte) (Update[float32], error) {
	var rec updateRecord
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return Update[float32]{}, err
	}
	if rest := bytes.TrimSpace(line[dec.InputOffset():]); len(rest) > 0 {
		return Update[float32]{}, fmt.Errorf("unexpected %.32q after the update object", rest)
	}
	w := float32(1)
	if rec.Weight != nil {
		w = *rec.Weight
	}
	return Update[float32]{Src: rec.Src, Dst: rec.Dst, Val: w, Del: rec.Del}, nil
}

// parsePlainUpdate recognizes an update object in plain form: the keys "src",
// "dst", "weight", "del" spelled exactly so, each at most once and in any
// order; ids as unsigned decimal integers that fit uint32; weight as a JSON
// number; del as true or false; spaces and tabs between tokens. It reports
// false for every other line, valid or not, and never guesses: whatever it
// accepts, decodeUpdate accepts with the same value (FuzzParseUpdates holds
// the two together).
func parsePlainUpdate(line []byte) (Update[float32], bool) {
	up := Update[float32]{Val: 1}
	var seen [len(plainKeys)]bool
	i := skipBlank(line, 0)
	if i >= len(line) || line[i] != '{' {
		return up, false
	}
	i = skipBlank(line, i+1)
	for {
		field := -1
		for f, key := range plainKeys {
			if bytes.HasPrefix(line[i:], key) {
				field, i = f, i+len(key)
				break
			}
		}
		if field < 0 || seen[field] {
			return up, false
		}
		seen[field] = true
		i = skipBlank(line, i)
		if i >= len(line) || line[i] != ':' {
			return up, false
		}
		i = skipBlank(line, i+1)
		end, ok := i, false
		switch field {
		case keySrc:
			up.Src, end, ok = plainUint32(line, i)
		case keyDst:
			up.Dst, end, ok = plainUint32(line, i)
		case keyWeight:
			up.Val, end, ok = plainFloat32(line, i)
		case keyDel:
			switch {
			case bytes.HasPrefix(line[i:], []byte("true")):
				up.Del, end, ok = true, i+4, true
			case bytes.HasPrefix(line[i:], []byte("false")):
				up.Del, end, ok = false, i+5, true
			}
		}
		if !ok {
			return up, false
		}
		i = skipBlank(line, end)
		if i >= len(line) {
			return up, false
		}
		switch line[i] {
		case ',':
			i = skipBlank(line, i+1)
		case '}':
			return up, skipBlank(line, i+1) == len(line)
		default:
			return up, false
		}
	}
}

// The keys of the plain form, quoted as they appear on the wire.
const (
	keySrc = iota
	keyDst
	keyWeight
	keyDel
)

var plainKeys = [...][]byte{keySrc: []byte(`"src"`), keyDst: []byte(`"dst"`), keyWeight: []byte(`"weight"`), keyDel: []byte(`"del"`)}

func skipBlank(line []byte, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	return i
}

// digitsEnd returns the end of the run of decimal digits starting at i.
func digitsEnd(line []byte, i int) int {
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		i++
	}
	return i
}

// plainUint32 reads a JSON integer literal (no sign, no leading zero) that
// fits uint32. A fraction or exponent after it is the caller's to trip over:
// neither is a delimiter.
func plainUint32(line []byte, i int) (uint32, int, bool) {
	end := digitsEnd(line, i)
	if end == i || end-i > 10 || (line[i] == '0' && end-i > 1) {
		return 0, i, false
	}
	var n uint64
	for _, c := range line[i:end] {
		n = n*10 + uint64(c-'0')
	}
	return uint32(n), end, n <= math.MaxUint32
}

// plainFloat32 reads a JSON number literal as encoding/json stores one into a
// float32: strconv.ParseFloat at 32 bits, a range error being a rejection.
// Integers of up to seven digits — the usual weight — are exact in float32
// and skip the conversion.
func plainFloat32(line []byte, i int) (float32, int, bool) {
	start := i
	if i < len(line) && line[i] == '-' {
		i++
	}
	intEnd := digitsEnd(line, i)
	if intEnd == i || (line[i] == '0' && intEnd-i > 1) {
		return 0, start, false
	}
	end := intEnd
	if end < len(line) && line[end] == '.' {
		fracEnd := digitsEnd(line, end+1)
		if fracEnd == end+1 {
			return 0, start, false
		}
		end = fracEnd
	}
	if end < len(line) && (line[end] == 'e' || line[end] == 'E') {
		exp := end + 1
		if exp < len(line) && (line[exp] == '+' || line[exp] == '-') {
			exp++
		}
		expEnd := digitsEnd(line, exp)
		if expEnd == exp {
			return 0, start, false
		}
		end = expEnd
	}
	if end == intEnd && i == start && end-start <= 7 {
		var n uint32
		for _, c := range line[start:end] {
			n = n*10 + uint32(c-'0')
		}
		return float32(n), end, true
	}
	f, err := strconv.ParseFloat(string(line[start:end]), 32)
	return float32(f), end, err == nil
}

// ParseUpdateList parses the text update form: one update per line, fields
// whitespace-separated — ["add"|"del"] src dst [weight] — with '#' comment
// lines. A line without an op is an add; weight defaults to 1, must be
// finite (the NDJSON form and WriteUpdates cannot carry NaN or ±Inf), and is
// ignored on del lines.
func ParseUpdateList(data []byte) ([]Update[float32], error) {
	var ups []Update[float32]
	lineno := 0
	for len(data) > 0 {
		lineno++
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		fields := bytes.Fields(line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		del := false
		switch string(fields[0]) {
		case "add":
			fields = fields[1:]
		case "del":
			del = true
			fields = fields[1:]
		}
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("updates line %d: want [add|del] src dst [weight]", lineno)
		}
		src, err := parseUint32(fields[0])
		if err != nil {
			return nil, fmt.Errorf("updates line %d: src: %v", lineno, err)
		}
		dst, err := parseUint32(fields[1])
		if err != nil {
			return nil, fmt.Errorf("updates line %d: dst: %v", lineno, err)
		}
		w := float32(1)
		if len(fields) == 3 && !del {
			f, err := strconv.ParseFloat(string(fields[2]), 32)
			if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
				err = fmt.Errorf("%q is not finite", fields[2])
			}
			if err != nil {
				return nil, fmt.Errorf("updates line %d: weight: %v", lineno, err)
			}
			w = float32(f)
		}
		ups = append(ups, Update[float32]{Src: src, Dst: dst, Val: w, Del: del})
	}
	return ups, nil
}

// ParseUpdates parses an update stream, sniffing the format: a first
// non-space byte of '{' selects NDJSON, anything else the text form.
func ParseUpdates(data []byte) ([]Update[float32], error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		return ParseUpdatesNDJSON(data)
	}
	return ParseUpdateList(data)
}

// WriteUpdates writes an update stream as NDJSON.
func WriteUpdates(w io.Writer, ups []Update[float32]) error {
	bw := bufio.NewWriter(w)
	for _, u := range ups {
		w32 := u.Val
		rec := updateRecord{Src: u.Src, Dst: u.Dst, Del: u.Del}
		if !u.Del {
			rec.Weight = &w32
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadUpdatesFile reads and parses an update-stream file (format sniffed).
func LoadUpdatesFile(path string) ([]Update[float32], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseUpdates(data)
}
