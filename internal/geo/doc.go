// Package geo provides the geospatial substrate: WGS-84 points, great-
// circle distances, bounding boxes, and the uniform grid partition the
// paper uses to divide New York City into 16x16 regions. It also offers a
// bucketed spatial index used by the dispatcher to find candidate drivers
// near a pickup location without scanning the whole fleet: Index.Within
// answers radius-bounded queries (the rider's patience radius) and
// Index.Nearest the k-nearest pre-filter that caps pricing candidates
// per order before the batch's travel costs are priced.
package geo
