package objmig

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// The typed codec linearises method arguments, results and object
// state. It is compiled by reflection once per Go type and cached:
// NewType compiles a type's state codec and HandleFunc its argument and
// result codecs, so a call or a snapshot only walks the compiled tree.
// The byte layout is given in docs/wire-format.md ("Typed codec").
//
// Decoders read bytes that come from the network (an invoke argument, a
// snapshot's state), so every length and count is checked against the
// bytes that remain before anything is allocated, truncated input and
// trailing bytes are errors, and strings and byte slices are copied out
// of the input, which may be a pooled frame.

// typeCodec is the compiled codec of one Go type.
type typeCodec struct {
	// min is the fewest bytes any value of the type encodes to; a
	// decoded count n of elements needs at least n*min bytes left.
	min int
	enc func(b []byte, v reflect.Value) []byte
	// dec decodes one value from the front of b into v (a settable
	// zero value) and returns the rest of b.
	dec func(b []byte, v reflect.Value) ([]byte, error)
}

var (
	errTruncated = errors.New("truncated input")
	errLength    = errors.New("length exceeds the input left")
)

// codecs caches compiled codecs by type: reflect.Type → codecEntry.
var codecs sync.Map

type codecEntry struct {
	c   *typeCodec
	err error
}

// codecFor returns the codec of t, compiling it on first use. A type
// the codec does not cover yields an error naming the offending field
// path; it is cached too.
func codecFor(t reflect.Type) (*typeCodec, error) {
	if e, ok := codecs.Load(t); ok {
		return e.(codecEntry).c, e.(codecEntry).err
	}
	c, err := compileCodec(t, t.String(), make(map[reflect.Type]bool))
	e, _ := codecs.LoadOrStore(t, codecEntry{c, err})
	return e.(codecEntry).c, e.(codecEntry).err
}

// mustCodec is codecFor for registration, where an unsupported type is
// a programming error: it panics with what names the registered value.
func mustCodec(t reflect.Type, what string) *typeCodec {
	c, err := codecFor(t)
	if err != nil {
		panic(fmt.Sprintf("objmig: %s: %v", what, err))
	}
	return c
}

// decode decodes data, which must hold exactly one value, into v.
func (c *typeCodec) decode(data []byte, v reflect.Value) error {
	rest, err := c.dec(data, v)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing bytes", len(rest))
	}
	return nil
}

// compileCodec builds the codec of t. path names t for error messages;
// visiting holds the composite types being compiled on the way down,
// which is how a recursive type is caught.
func compileCodec(t reflect.Type, path string, visiting map[reflect.Type]bool) (*typeCodec, error) {
	switch t.Kind() {
	case reflect.Bool:
		return boolCodec, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return intCodec, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return uintCodec, nil
	case reflect.Float32:
		return float32Codec, nil
	case reflect.Float64:
		return float64Codec, nil
	case reflect.String:
		return stringCodec, nil
	case reflect.Slice, reflect.Array, reflect.Map, reflect.Struct:
	default:
		return nil, fmt.Errorf("%s: %s type %s is not supported", path, t.Kind(), t)
	}
	if visiting[t] {
		return nil, fmt.Errorf("%s: recursive type %s is not supported", path, t)
	}
	visiting[t] = true
	defer delete(visiting, t)
	switch t.Kind() {
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return bytesCodec, nil
		}
		elem, err := compileCodec(t.Elem(), path+"[]", visiting)
		if err != nil {
			return nil, err
		}
		if elem.min == 0 {
			return nil, zeroWidth(path, t)
		}
		return sliceCodec(t, elem), nil
	case reflect.Array:
		elem, err := compileCodec(t.Elem(), path+"[]", visiting)
		if err != nil {
			return nil, err
		}
		return arrayCodec(t.Len(), elem), nil
	case reflect.Map:
		key, err := compileCodec(t.Key(), path+"[key]", visiting)
		if err != nil {
			return nil, err
		}
		elem, err := compileCodec(t.Elem(), path+"[value]", visiting)
		if err != nil {
			return nil, err
		}
		if key.min+elem.min == 0 {
			return nil, zeroWidth(path, t)
		}
		return mapCodec(t, key, elem), nil
	default:
		return structCodec(t, path, visiting)
	}
}

// zeroWidth refuses a slice or map whose elements encode to no bytes:
// a decoded count could not be checked against the input, so a short
// forged message could allocate without bound.
func zeroWidth(path string, t reflect.Type) error {
	return fmt.Errorf("%s: elements of %s encode to no bytes", path, t)
}

var boolCodec = &typeCodec{
	min: 1,
	enc: func(b []byte, v reflect.Value) []byte {
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	},
	dec: func(b []byte, v reflect.Value) ([]byte, error) {
		if len(b) == 0 {
			return nil, errTruncated
		}
		if b[0] > 1 {
			return nil, fmt.Errorf("bool byte %#x", b[0])
		}
		v.SetBool(b[0] == 1)
		return b[1:], nil
	},
}

// intCodec is a zig-zag varint; the decoder refuses a value the
// destination's width cannot hold.
var intCodec = &typeCodec{
	min: 1,
	enc: func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) },
	dec: func(b []byte, v reflect.Value) ([]byte, error) {
		x, n := binary.Varint(b)
		if n <= 0 {
			return nil, varintErr(n)
		}
		if v.OverflowInt(x) {
			return nil, fmt.Errorf("%d overflows %s", x, v.Type())
		}
		v.SetInt(x)
		return b[n:], nil
	},
}

var uintCodec = &typeCodec{
	min: 1,
	enc: func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) },
	dec: func(b []byte, v reflect.Value) ([]byte, error) {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, varintErr(n)
		}
		if v.OverflowUint(x) {
			return nil, fmt.Errorf("%d overflows %s", x, v.Type())
		}
		v.SetUint(x)
		return b[n:], nil
	},
}

func varintErr(n int) error {
	if n == 0 {
		return errTruncated
	}
	return errors.New("varint overflows 64 bits")
}

var float32Codec = &typeCodec{
	min: 4,
	enc: func(b []byte, v reflect.Value) []byte {
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float())))
	},
	dec: func(b []byte, v reflect.Value) ([]byte, error) {
		if len(b) < 4 {
			return nil, errTruncated
		}
		v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))
		return b[4:], nil
	},
}

var float64Codec = &typeCodec{
	min: 8,
	enc: func(b []byte, v reflect.Value) []byte {
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	},
	dec: func(b []byte, v reflect.Value) ([]byte, error) {
		if len(b) < 8 {
			return nil, errTruncated
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		return b[8:], nil
	},
}

// readLen reads a uvarint length or count of elements that each take
// at least each (> 0) bytes, refusing one the rest of b cannot hold.
func readLen(b []byte, each int) (int, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, varintErr(k)
	}
	b = b[k:]
	if n > uint64(len(b)/each) {
		return 0, nil, errLength
	}
	return int(n), b, nil
}

var stringCodec = &typeCodec{
	min: 1,
	enc: func(b []byte, v reflect.Value) []byte {
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	},
	dec: func(b []byte, v reflect.Value) ([]byte, error) {
		n, b, err := readLen(b, 1)
		if err != nil {
			return nil, err
		}
		v.SetString(string(b[:n]))
		return b[n:], nil
	},
}

// bytesCodec covers every slice of a uint8 kind. Empty decodes as nil.
var bytesCodec = &typeCodec{
	min: 1,
	enc: func(b []byte, v reflect.Value) []byte {
		p := v.Bytes()
		return append(binary.AppendUvarint(b, uint64(len(p))), p...)
	},
	dec: func(b []byte, v reflect.Value) ([]byte, error) {
		n, b, err := readLen(b, 1)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			v.SetBytes(append([]byte(nil), b[:n]...))
		}
		return b[n:], nil
	},
}

// sliceCodec is a count followed by the elements. Empty decodes as nil.
func sliceCodec(t reflect.Type, elem *typeCodec) *typeCodec {
	return &typeCodec{
		min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			n := v.Len()
			b = binary.AppendUvarint(b, uint64(n))
			for i := 0; i < n; i++ {
				b = elem.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(b []byte, v reflect.Value) ([]byte, error) {
			n, b, err := readLen(b, elem.min)
			if err != nil || n == 0 {
				return b, err
			}
			s := reflect.MakeSlice(t, n, n)
			for i := 0; i < n; i++ {
				if b, err = elem.dec(b, s.Index(i)); err != nil {
					return nil, err
				}
			}
			v.Set(s)
			return b, nil
		},
	}
}

// arrayCodec is the elements alone: the length is part of the type.
func arrayCodec(n int, elem *typeCodec) *typeCodec {
	return &typeCodec{
		min: n * elem.min,
		enc: func(b []byte, v reflect.Value) []byte {
			for i := 0; i < n; i++ {
				b = elem.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(b []byte, v reflect.Value) (_ []byte, err error) {
			for i := 0; i < n; i++ {
				if b, err = elem.dec(b, v.Index(i)); err != nil {
					return nil, err
				}
			}
			return b, nil
		},
	}
}

// mapCodec is a count followed by key, value pairs in iteration order.
// Empty decodes as nil.
func mapCodec(t reflect.Type, key, elem *typeCodec) *typeCodec {
	return &typeCodec{
		min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			b = binary.AppendUvarint(b, uint64(v.Len()))
			k := reflect.New(t.Key()).Elem()
			e := reflect.New(t.Elem()).Elem()
			for it := v.MapRange(); it.Next(); {
				k.SetIterKey(it)
				e.SetIterValue(it)
				b = elem.enc(key.enc(b, k), e)
			}
			return b
		},
		dec: func(b []byte, v reflect.Value) ([]byte, error) {
			n, b, err := readLen(b, key.min+elem.min)
			if err != nil || n == 0 {
				return b, err
			}
			m := reflect.MakeMapWithSize(t, n)
			k := reflect.New(t.Key()).Elem()
			e := reflect.New(t.Elem()).Elem()
			for i := 0; i < n; i++ {
				k.SetZero()
				e.SetZero()
				if b, err = key.dec(b, k); err != nil {
					return nil, err
				}
				if b, err = elem.dec(b, e); err != nil {
					return nil, err
				}
				m.SetMapIndex(k, e)
			}
			v.Set(m)
			return b, nil
		},
	}
}

// structCodec is the exported fields in declaration order; unexported
// fields are skipped, as gob does. A struct whose fields are all
// unexported (time.Time, say) would carry nothing and is refused.
func structCodec(t reflect.Type, path string, visiting map[reflect.Type]bool) (*typeCodec, error) {
	var idx []int
	var fields []*typeCodec
	width := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		fc, err := compileCodec(f.Type, path+"."+f.Name, visiting)
		if err != nil {
			return nil, err
		}
		idx = append(idx, i)
		fields = append(fields, fc)
		width += fc.min
	}
	if t.NumField() > 0 && len(fields) == 0 {
		return nil, fmt.Errorf("%s: struct %s has no exported fields", path, t)
	}
	return &typeCodec{
		min: width,
		enc: func(b []byte, v reflect.Value) []byte {
			for i, fc := range fields {
				b = fc.enc(b, v.Field(idx[i]))
			}
			return b
		},
		dec: func(b []byte, v reflect.Value) (_ []byte, err error) {
			for i, fc := range fields {
				if b, err = fc.dec(b, v.Field(idx[i])); err != nil {
					return nil, err
				}
			}
			return b, nil
		},
	}, nil
}
