package codec

import "reflect"

// RegisteredTypes lists every registration, id → the Go type as it was
// registered (T or *T), for the registry-driven tests.
func RegisteredTypes() map[uint16]reflect.Type {
	out := map[uint16]reflect.Type{}
	for t, m := range registry.Load().byType {
		out[m.id] = t
	}
	return out
}
