package telemetry

import (
	"context"
	"log/slog"
)

// DiscardLogger returns the logger a component defaults to when it is
// given none. Its handler reports every level disabled, so a log call on a
// hot path costs one interface call — a text handler over io.Discard is
// enabled, and formats every record before throwing it away.
func DiscardLogger() *slog.Logger { return discardLogger }

var discardLogger = slog.New(discardHandler{})

// discardHandler is slog.DiscardHandler for a go.mod below 1.24.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }
