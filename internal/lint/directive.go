package lint

import (
	"go/token"
	"strings"
)

// directivePrefix introduces a suppression comment:
//
//	//wdmlint:ignore <rule> <reason...>
//
// placed either on the line of the finding or on its own line directly above.
const directivePrefix = "//wdmlint:ignore"

// directive is one parsed ignore comment.
type directive struct {
	rule   string
	reason string
	pos    token.Position
}

// directives extracts every wdmlint:ignore comment of the package, keyed by
// file name then line. Malformed entries get rule "" and are reported by
// malformedDirectives.
func directives(pkg *Package) map[string]map[int]directive {
	out := map[string]map[int]directive{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				d := directive{pos: pos}
				if len(fields) >= 2 {
					d.rule = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				m := out[pos.Filename]
				if m == nil {
					m = map[int]directive{}
					out[pos.Filename] = m
				}
				m[pos.Line] = d
			}
		}
	}
	return out
}

// malformedDirectives reports ignore comments missing their rule or reason.
func malformedDirectives(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, byLine := range directives(pkg) {
		for _, d := range byLine {
			if d.rule == "" {
				out = append(out, Diagnostic{
					Rule:    "wdmlint",
					Pos:     d.pos,
					Message: "malformed directive: want //wdmlint:ignore <rule> <reason>",
					Package: pkg.Types.Path(),
				})
			}
		}
	}
	return out
}

// applySuppressions marks diagnostics covered by a matching directive on the
// same line or the line directly above. It also reports, as a "wdmlint"
// finding, every directive of a rule in analyzers that covered no finding,
// so a deletion cannot leave its excuse behind. Directives of rules that did
// not run are never stale.
func applySuppressions(pkgs []*Package, diags []Diagnostic, analyzers []*Analyzer) []Diagnostic {
	byPkg := map[string]map[string]map[int]directive{}
	for _, pkg := range pkgs {
		byPkg[pkg.Types.Path()] = directives(pkg)
	}
	used := map[token.Position]bool{}
	for i, d := range diags {
		if d.Rule == "wdmlint" {
			continue // malformed-directive findings cannot be suppressed
		}
		byLine := byPkg[d.Package][d.Pos.Filename]
		if byLine == nil {
			continue
		}
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			if dir, ok := byLine[line]; ok && dir.rule == d.Rule {
				diags[i].Suppress = true
				used[dir.pos] = true
				break
			}
		}
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for path, byFile := range byPkg {
		for _, byLine := range byFile {
			for _, dir := range byLine {
				if ran[dir.rule] && !used[dir.pos] {
					diags = append(diags, Diagnostic{
						Rule:    "wdmlint",
						Pos:     dir.pos,
						Message: "stale directive: no " + dir.rule + " finding on this line or the next",
						Package: path,
					})
				}
			}
		}
	}
	return diags
}
