package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsedSample is one time series read back from a text exposition.
type ParsedSample struct {
	// Name is the sample's full name, including a histogram's _bucket,
	// _sum or _count suffix.
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one metric family read back from a text exposition.
type ParsedFamily struct {
	Name    string
	Type    string
	Samples []ParsedSample
}

// ParseText parses a Prometheus text-format exposition — the inverse
// of Registry.WriteText, strict enough to fail on malformed scrapes.
// It returns families keyed by name; histogram _bucket/_sum/_count
// samples attach to their base family. Used by the CLI phase tables
// and the e2e scrape checks.
func ParseText(r io.Reader) (map[string]*ParsedFamily, error) {
	fams := make(map[string]*ParsedFamily)
	fam := func(name string) *ParsedFamily {
		f, ok := fams[name]
		if !ok {
			f = &ParsedFamily{Name: name}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				fam(fields[2]).Type = fields[3]
			}
			continue
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name {
				if f, ok := fams[trimmed]; ok && f.Type == "histogram" {
					base = trimmed
				}
				break
			}
		}
		fam(base).Samples = append(fam(base).Samples,
			ParsedSample{Name: name, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// parseSampleLine splits `name{k="v",...} value` (labels optional).
func parseSampleLine(line string) (string, map[string]string, float64, error) {
	var name, rest string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		rest = line[i:]
	} else if i := strings.IndexAny(line, " \t"); i >= 0 {
		name = line[:i]
		rest = line[i:]
	} else {
		return "", nil, 0, fmt.Errorf("sample without value: %q", line)
	}
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, labels)
		if err != nil {
			return "", nil, 0, err
		}
		rest = rest[end:]
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q: %w", line, err)
	}
	return name, labels, v, nil
}

// parseLabels consumes `{k="v",...}` from the front of s into out and
// returns how many bytes it consumed.
func parseLabels(s string, out map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("unterminated label set in %q", s)
		}
		key := strings.TrimSpace(s[i : i+eq])
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("unquoted label value in %q", s)
		}
		j := i + 1
		var val strings.Builder
		for j < len(s) && s[j] != '"' {
			if s[j] == '\\' && j+1 < len(s) {
				switch s[j+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[j+1])
				}
				j += 2
				continue
			}
			val.WriteByte(s[j])
			j++
		}
		if j >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		out[key] = val.String()
		i = j + 1
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
