package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// appendFingerprint appends the canonical binary form of v, a resolved job,
// to b. It writes the fields JSON encodes, that is the exported ones and
// those promoted from embedded structs, in declaration order: floats as
// their 64 bits, integers as varints, and strings and slices behind their
// length, a nil slice apart from an empty one. Two jobs of one type thus
// have equal forms exactly when their JSON encodings are equal, and like
// json.Marshal it refuses NaN and the infinities, so none reaches a key.
func appendFingerprint(b []byte, v reflect.Value) ([]byte, error) {
	var err error
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint()), nil
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("unsupported value: %v", f)
		}
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(f)), nil
	case reflect.String:
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...), nil
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0), nil
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		for i := range v.Len() {
			if b, err = appendFingerprint(b, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	case reflect.Struct:
		for _, i := range fingerprintFields(v.Type()) {
			if b, err = appendFingerprint(b, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	return nil, fmt.Errorf("unsupported type: %v", v.Type())
}

// fieldLists caches fingerprintFields per struct type.
var fieldLists sync.Map // reflect.Type → []int

// fingerprintFields returns the indices of the fields of struct type t that
// the fingerprint walks: the exported ones and the embedded structs, whose
// fields JSON promotes, less any tagged "-". It is computed once per type.
func fingerprintFields(t reflect.Type) []int {
	if fields, ok := fieldLists.Load(t); ok {
		return fields.([]int)
	}
	var fields []int
	for i := range t.NumField() {
		f := t.Field(i)
		if f.Tag.Get("json") == "-" {
			continue
		}
		if f.IsExported() || f.Anonymous && f.Type.Kind() == reflect.Struct {
			fields = append(fields, i)
		}
	}
	fieldLists.Store(t, fields)
	return fields
}
