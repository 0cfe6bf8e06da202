package lint

// Findings serialization.

import (
	"encoding/json"
	"io"
)

// FindingJSON is the serialized form of one finding.
type FindingJSON struct {
	Rule string `json:"rule"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col,omitempty"`
	Msg  string `json:"msg"`
}

// WriteFindingsJSON writes findings as a deterministic JSON array,
// sorted by file, line, rule.
func WriteFindingsJSON(w io.Writer, findings []Finding) error {
	sorted := make([]Finding, len(findings))
	copy(sorted, findings)
	sortFindings(sorted)
	out := make([]FindingJSON, 0, len(sorted))
	for _, f := range sorted {
		out = append(out, FindingJSON{
			Rule: f.Rule, File: f.Pos.Filename,
			Line: f.Pos.Line, Col: f.Pos.Column, Msg: f.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(out)
}
