package proto_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"github.com/rtcl/drtp/internal/proto"
)

// sampleMessages returns one value of every registered wire message with
// every exported field, at every depth, set non-zero. The values are a
// pure function of the struct definitions, so the list cannot fall behind
// the registry and a field the codec skips comes back zero and fails the
// round trip.
func sampleMessages(tb testing.TB) []proto.Message {
	tb.Helper()
	var out []proto.Message
	for _, zero := range proto.Registered() {
		v := reflect.New(reflect.TypeOf(zero)).Elem()
		n := 0
		fill(tb, v, &n)
		out = append(out, v.Interface().(proto.Message))
	}
	return out
}

// fill sets v, and everything reachable from it, to a non-zero value
// drawn from the counter n: integers step by 61 so one- and two-byte
// varints both occur, every third signed one negative.
func fill(tb testing.TB, v reflect.Value, n *int) {
	tb.Helper()
	*n += 61
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		x := int64(*n)
		if x%3 == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint8:
		v.SetUint(uint64(*n%255 + 1))
	case reflect.Uint64:
		v.SetUint(uint64(*n) << 7)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(tb, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				tb.Fatalf("%s has unexported field %s: wire messages are plain data", v.Type(), v.Type().Field(i).Name)
			}
			fill(tb, v.Field(i), n)
		}
	default:
		tb.Fatalf("%s: no sample value for kind %s; teach fill and the codec about it", v.Type(), v.Kind())
	}
}

// TestFieldListsComplete names the one layout mistake the codec cannot
// rule out by construction: a struct field that its message's field list
// leaves out is never encoded, so it comes back zero from a round trip in
// which every field went in non-zero.
func TestFieldListsComplete(t *testing.T) {
	for _, msg := range sampleMessages(t) {
		data, err := (&proto.Envelope{From: 1, To: 2, Msg: msg}).MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", msg.Kind(), err)
		}
		var got proto.Envelope
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: unmarshal: %v", msg.Kind(), err)
		}
		if reflect.TypeOf(got.Msg) != reflect.TypeOf(msg) {
			t.Fatalf("%T decoded as %T", msg, got.Msg)
		}
		for _, path := range zeroLeaves(reflect.ValueOf(got.Msg), reflect.TypeOf(msg).Name()) {
			t.Errorf("%s is missing from its message's field list: it was sent non-zero and decoded zero", path)
		}
	}
}

// zeroLeaves returns the path of every zero-valued leaf under v.
func zeroLeaves(v reflect.Value, path string) []string {
	var out []string
	switch {
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = append(out, zeroLeaves(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
	case v.Kind() == reflect.Slice && v.Len() > 0:
		for i := 0; i < v.Len(); i++ {
			out = append(out, zeroLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	case v.IsZero():
		out = append(out, path)
	}
	return out
}

// TestEveryMessageRegistered closes the other gap: a type that has a Kind
// and a field list but no registry row would encode and never decode.
// Every type in the package's source with a Kind method must be in the
// registry, and every registry row must have a distinct Kind.
func TestEveryMessageRegistered(t *testing.T) {
	registered := map[string]bool{}
	kinds := map[string]string{}
	for _, zero := range proto.Registered() {
		name := reflect.TypeOf(zero).Name()
		registered[name] = true
		if other, dup := kinds[zero.Kind()]; dup {
			t.Errorf("%s and %s share Kind %q", other, name, zero.Kind())
		}
		kinds[zero.Kind()] = name
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, file := range pkgs["proto"].Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Kind" {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			declared++
			if name := recv.(*ast.Ident).Name; !registered[name] {
				t.Errorf("%s has a Kind method but no row in wire.go's registry", name)
			}
		}
	}
	if declared != len(registered) {
		t.Errorf("%d Kind methods in the source, %d registry rows", declared, len(registered))
	}
}
