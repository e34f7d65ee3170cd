package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/auxgraph"
	"repro/internal/disjoint"
	"repro/internal/graph"
)

// TestStatefulTypesAreNoCopy keeps go vet's copylocks check guarding the
// stateful workspace types: each must hold, by value, a field whose pointer
// type implements sync.Locker (the noCopy sentinel), or vet stops reporting
// its copies. A copied workspace or skeleton forks its scratch state, and the
// copy and the original then compute on stale data.
func TestStatefulTypesAreNoCopy(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*graph.Workspace)(nil)).Elem(),
		reflect.TypeOf((*disjoint.Workspace)(nil)).Elem(),
		reflect.TypeOf((*auxgraph.Skeleton)(nil)).Elem(),
		reflect.TypeOf((*Router)(nil)).Elem(),
	} {
		if !holdsLocker(typ) {
			t.Errorf("%v holds no sync.Locker by value; go vet no longer reports its copies", typ)
		}
	}
}

// holdsLocker reports whether t holds, through struct fields and array
// elements, a field whose pointer type implements sync.Locker. Pointers,
// slices and maps stop the walk: sharing through them copies no state.
func holdsLocker(t reflect.Type) bool {
	locker := reflect.TypeOf((*sync.Locker)(nil)).Elem()
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			ft := t.Field(i).Type
			if reflect.PointerTo(ft).Implements(locker) || holdsLocker(ft) {
				return true
			}
		}
	case reflect.Array:
		return holdsLocker(t.Elem())
	}
	return false
}
