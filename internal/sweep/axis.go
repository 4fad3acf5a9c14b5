package sweep

import (
	"fmt"
	"slices"
	"strings"
)

// Axis is the one selector grammar every grid axis shares: a
// comma-separated list of names, whitespace-tolerant, parsed against a
// closed set of accepted values. ParseVariants, ParseHWPrefetchers,
// ParseExecModes and ParseSystems are thin instantiations, and
// internal/tune builds its strategy and search-ladder axes the same
// way, so there is exactly one error contract to learn:
//
//   - an empty (or whitespace-only) selector denotes Default;
//   - any unknown token fails the whole parse — the error quotes the
//     offending token and lists every accepted name, and no partial
//     result is returned;
//   - duplicates and order are preserved (an axis is a selection, not
//     a set).
type Axis[T comparable] struct {
	// Noun names the axis in error messages ("variant", "system", ...).
	Noun string
	// Prefix labels errors with the owning package; "" means "sweep".
	// internal/tune sets it so its axes report as tune errors.
	Prefix string
	// Values enumerates every accepted value in presentation order.
	Values []T
	// Name renders a value's wire spelling.
	Name func(T) string
	// Default is the selection an empty selector denotes.
	Default []T
}

// Names returns the wire spelling of every accepted value, in
// presentation order — the list the error message cites, and the list
// discovery surfaces (swpfbench -list, GET /meta) print.
func (a Axis[T]) Names() []string {
	out := make([]string, len(a.Values))
	for i, v := range a.Values {
		out[i] = a.Name(v)
	}
	return out
}

// Parse parses a comma-separated selector against the axis.
func (a Axis[T]) Parse(s string) ([]T, error) {
	if strings.TrimSpace(s) == "" {
		return slices.Clone(a.Default), nil
	}
	var out []T
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		found := false
		for _, v := range a.Values {
			if a.Name(v) == tok {
				out = append(out, v)
				found = true
				break
			}
		}
		if !found {
			pkg := a.Prefix
			if pkg == "" {
				pkg = "sweep"
			}
			return nil, fmt.Errorf("%s: unknown %s %q (have %s)",
				pkg, a.Noun, tok, strings.Join(a.Names(), ", "))
		}
	}
	return out, nil
}
