package core

import (
	"reflect"
	"testing"
)

// TestCellIsPointerFree pins that the DAG arena stays noscan: if a cell or
// a set-table entry ever held a pointer, the garbage collector would have
// to scan every pooled scratch's arena, which is the cost the index-
// addressed layout removes.
func TestCellIsPointerFree(t *testing.T) {
	ar := reflect.TypeFor[arena]()
	for i := 0; i < ar.NumField(); i++ {
		f := ar.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Fatalf("arena.%s is a %v, want a slice", f.Name, f.Type)
		}
		elem := f.Type.Elem()
		if path, ok := pointerPath(elem); ok {
			t.Errorf("arena.%s element %v holds a pointer at %s", f.Name, elem, path)
		}
	}
	if size := reflect.TypeFor[cell]().Size(); size > 24 {
		t.Errorf("cell is %d bytes, want at most 24", size)
	}
}

// pointerPath reports whether a value of type typ contains a pointer the
// garbage collector must scan, and where.
func pointerPath(typ reflect.Type) (string, bool) {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", false
	case reflect.Array:
		if typ.Len() == 0 {
			return "", false
		}
		p, ok := pointerPath(typ.Elem())
		return "[]" + p, ok
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerPath(f.Type); ok {
				return "." + f.Name + p, true
			}
		}
		return "", false
	default: // pointers, slices, strings, maps, interfaces, funcs, channels
		return " (" + typ.Kind().String() + ")", true
	}
}
