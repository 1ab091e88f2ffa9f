// Package jsonenc appends JSON values to a byte slice in exactly the bytes
// encoding/json's Marshal produces for them, so hot response paths can
// write their payload in one pass without building a reflection tree or
// re-compacting a json.RawMessage.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// String appends s as a JSON string with encoding/json's escaping: `"`
// and `\` are backslash-escaped, control bytes use \b \f \n \r \t or
// \u00XX, the HTML-sensitive <, > and & become \u003c \u003e \u0026,
// U+2028 and U+2029 are escaped, and every invalid UTF-8 byte becomes
// \ufffd.
func String(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
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
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Strings appends ss as a JSON array of strings; a nil slice is null and
// an empty non-nil one is [], as encoding/json renders them.
func Strings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = String(b, s)
	}
	return append(b, ']')
}

// Float appends a finite f the way encoding/json formats a float64: the
// shortest 'f' representation, switching to an exponent (with no leading
// zero padding) below 1e-6 and at or above 1e21.
func Float(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
