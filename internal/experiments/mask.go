package experiments

import "regexp"

// wall_ms masking — the one shared implementation behind every
// "byte-identical modulo wall_ms" comparison (CI smokes via `paperbench
// mask-wall-ms`, the dist and resume differentials, tests). It used to
// be an ad-hoc sed/regexp in each place, and the ad-hoc pattern
// `"wall_ms":[^,}]*` had a latent bug: it also matches the tail of any
// future field whose name merely ends in wall_ms ("warm_wall_ms" would
// be silently zeroed too, hiding real divergence from the byte-identity
// checks). The shared pattern anchors on the preceding '{' or ',' so it
// rewrites exactly the wall_ms key and nothing else.
var wallMSRe = regexp.MustCompile(`([{,])"wall_ms":[^,}]*`)

// MaskWallMS zeroes every "wall_ms" value in a JSON-lines blob (or a
// single line), leaving all other fields — including any *_wall_ms
// cousins — byte-for-byte intact. Idempotent.
func MaskWallMS(s string) string {
	return wallMSRe.ReplaceAllString(s, `${1}"wall_ms":0`)
}
