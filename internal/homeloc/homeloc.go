// Package homeloc predicts a user's home district from the evidence in
// their tweets, without looking at the profile location. It is the library's
// extension of the paper's future-work direction: once profile locations are
// known to be unreliable, a detector wants an independent estimate — the
// research line of Cheng et al.'s content-based user geolocation.
//
// Two evidence channels vote:
//
//   - GPS channel: districts the user's geo-tagged tweets were posted from
//     (strong but sparse, the paper's ~0.25% problem);
//   - content channel: district names mentioned in tweet text ("lunch at
//     Haeundae-gu"), scanned with the gazetteer; ambiguous names split their
//     vote across candidates.
package homeloc

import (
	"context"
	"errors"
	"sort"

	"stir/internal/admin"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/textnorm"
	"stir/internal/twitter"
)

// Predictor votes over a gazetteer.
type Predictor struct {
	Gaz *admin.Gazetteer
	// Resolver reverse-geocodes GPS tweets; required for the GPS channel.
	Resolver geocode.Resolver
	// GPSWeight is the vote weight of one geo-tagged tweet (default 3: a
	// coordinate is much stronger evidence than a name-drop).
	GPSWeight float64
	// ContentWeight is the vote weight of one textual mention (default 1).
	ContentWeight float64
	// MaxNGram bounds district-name length in tokens (default 3).
	MaxNGram int
}

// Prediction is the voting outcome for one user.
type Prediction struct {
	// District is the winner, nil when no evidence existed.
	District *admin.District
	// Score is the winner's vote mass; Total is all vote mass.
	Score, Total float64
	// GPSVotes and ContentVotes count evidence items per channel.
	GPSVotes, ContentVotes int
}

// Confidence is the winner's share of all votes (0 when no evidence).
func (p Prediction) Confidence() float64 {
	if p.Total == 0 {
		return 0
	}
	return p.Score / p.Total
}

// ErrNoEvidence reports a user with neither GPS tweets nor mentions.
var ErrNoEvidence = errors.New("homeloc: no location evidence in tweets")

// Predict runs both evidence channels over the user's tweets.
func (p *Predictor) Predict(ctx context.Context, tweets []*twitter.Tweet) (Prediction, error) {
	if p.Gaz == nil {
		return Prediction{}, errors.New("homeloc: Gaz is required")
	}
	gpsW := p.GPSWeight
	if gpsW <= 0 {
		gpsW = 3
	}
	contentW := p.ContentWeight
	if contentW <= 0 {
		contentW = 1
	}
	maxN := p.MaxNGram
	if maxN <= 0 {
		maxN = 3
	}
	votes := make(map[string]float64)
	var pred Prediction
	for _, t := range tweets {
		if t.Geo != nil && p.Resolver != nil {
			loc, err := p.Resolver.Reverse(ctx, geo.Point{Lat: t.Geo.Lat, Lon: t.Geo.Lon})
			if err == nil {
				if ds := p.Gaz.ResolveNameInState(loc.County, loc.State); len(ds) == 1 {
					votes[ds[0].ID()] += gpsW
					pred.GPSVotes++
				}
			} else if !errors.Is(err, geocode.ErrNoMatch) {
				return Prediction{}, err
			}
		}
		if n := p.mentionVotes(t.Text, contentW, votes, maxN); n > 0 {
			pred.ContentVotes += n
		}
	}
	if len(votes) == 0 {
		return Prediction{}, ErrNoEvidence
	}
	// Deterministic winner: highest votes, ties by district ID.
	ids := make([]string, 0, len(votes))
	for id := range votes {
		ids = append(ids, id)
		pred.Total += votes[id]
	}
	sort.Strings(ids)
	bestID := ids[0]
	for _, id := range ids[1:] {
		if votes[id] > votes[bestID] {
			bestID = id
		}
	}
	d, err := p.Gaz.ByID(bestID)
	if err != nil {
		return Prediction{}, err
	}
	pred.District = d
	pred.Score = votes[bestID]
	return pred, nil
}

// mentionVotes scans tweet text for district names, adding (possibly split)
// votes; returns how many mentions were found.
func (p *Predictor) mentionVotes(text string, w float64, votes map[string]float64, maxN int) int {
	var buf [256]byte
	mentions := 0
	textnorm.ScanNames(p.Gaz, admin.AppendNormalized(buf[:0], text), maxN, func(n admin.Name) bool {
		if len(n.Districts) == 0 {
			return false
		}
		mentions++
		share := w / float64(len(n.Districts))
		for _, d := range n.Districts {
			votes[d.ID()] += share
		}
		return true
	})
	return mentions
}
