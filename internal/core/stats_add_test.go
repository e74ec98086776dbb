package core

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryTally pins Stats.Add against the struct itself:
// every integer field of Stats and SchedStats gets a distinct value on both
// sides, and after Add each must hold the sum — except Sched.Workers, which
// is taken from the argument, and Reason, which is left alone. A counter
// added to Stats without a line in Add fails here, not in a dashboard.
func TestStatsAddCoversEveryTally(t *testing.T) {
	var dst, src Stats
	next := int64(1)
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanInt() {
				f.SetInt(next)
				next++
			}
		}
	}
	for _, s := range []*Stats{&dst, &src} {
		fill(reflect.ValueOf(s).Elem())
		fill(reflect.ValueOf(&s.Sched).Elem())
	}
	before := dst
	dst.Add(src)

	check := func(path string, got, was, add reflect.Value) {
		for i := 0; i < got.NumField(); i++ {
			f := got.Type().Field(i)
			if !got.Field(i).CanInt() {
				continue
			}
			want := was.Field(i).Int() + add.Field(i).Int()
			switch path + f.Name {
			case "Reason":
				want = was.Field(i).Int()
			case "Sched.Workers":
				want = add.Field(i).Int()
			}
			if g := got.Field(i).Int(); g != want {
				t.Errorf("%s%s = %d after Add, want %d", path, f.Name, g, want)
			}
		}
	}
	check("", reflect.ValueOf(dst), reflect.ValueOf(before), reflect.ValueOf(src))
	check("Sched.", reflect.ValueOf(dst.Sched), reflect.ValueOf(before.Sched), reflect.ValueOf(src.Sched))

	// The walk above sees integer fields only: anything else in either
	// struct needs a decision here.
	for _, typ := range []reflect.Type{reflect.TypeOf(Stats{}), reflect.TypeOf(SchedStats{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if k := f.Type.Kind(); k != reflect.Int && k != reflect.Int64 && f.Name != "Sched" {
				t.Errorf("%s.%s has kind %s: teach Stats.Add and this test about it", typ.Name(), f.Name, k)
			}
		}
	}
}
