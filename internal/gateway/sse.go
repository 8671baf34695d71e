package gateway

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"aegaeon/internal/sim"
)

// sseFrames encodes the SSE frames of one streamed completion into a single
// reused buffer. The frame prefix — everything up to the token text, with
// the id and model escaped once — is built at admission and stays at the
// head of buf; each frame truncates buf back to it and appends the rest, so
// a warmed stream encodes a token without allocating. The bytes are exactly
// what json.Encoder writes for the equivalent chunk struct, so clients see
// ordinary JSON.
type sseFrames struct {
	buf    []byte
	prefix int // len of the per-stream prefix at the head of buf
}

func newSSEFrames(id, model string) *sseFrames {
	// A token frame is about 185 bytes plus the id and model.
	buf := make([]byte, 0, 192+len(id)+len(model))
	buf = append(buf, `data: {"id":`...)
	buf = appendJSONString(buf, id)
	buf = append(buf, `,"object":"text_completion.chunk","model":`...)
	buf = appendJSONString(buf, model)
	buf = append(buf, `,"choices":[{"index":0,"text":"`...)
	return &sseFrames{buf: buf, prefix: len(buf)}
}

// token returns the frame of token i, emitted at virtual time at. The slice
// is valid until the next call.
func (f *sseFrames) token(i int, at sim.Time) []byte {
	b := appendTokenText(f.buf[:f.prefix], i)
	b = append(b, `","finish_reason":null}],"token_index":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `,"virtual_time_s":`...)
	b = appendJSONFloat(b, time.Duration(at).Seconds())
	f.buf = append(b, "}\n\n"...)
	return f.buf
}

// stop returns the terminal finish_reason "stop" frame followed by the
// [DONE] marker.
func (f *sseFrames) stop() []byte {
	f.buf = append(f.buf[:f.prefix], `","finish_reason":"stop"}],"token_index":-1,"virtual_time_s":0}`+"\n\ndata: [DONE]\n\n"...)
	return f.buf
}

// errorFrame returns an error event whose message is a JSON string. It is
// built after the prefix, which it does not use, so the buffer stays
// reusable.
func (f *sseFrames) errorFrame(msg string) []byte {
	b := append(f.buf[:f.prefix], `data: {"error":`...)
	b = appendJSONString(b, msg)
	f.buf = append(b, "}\n\n"...)
	return f.buf[f.prefix:]
}

// appendTokenText appends the i-th token's text. The simulator models
// timing, not language; the placeholder keeps streams self-describing.
func appendTokenText(b []byte, i int) []byte {
	return strconv.AppendInt(append(b, " token"...), int64(i), 10)
}

// appendJSONFloat appends f as encoding/json writes a float64: like %g, but
// in 'e' form only below 1e-6 or from 1e21, with the exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string escaped the way
// encoding/json escapes it by default: control characters, quote and
// backslash, the HTML-sensitive <, > and &, U+2028 and U+2029, and invalid
// UTF-8 (as U+FFFD).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
