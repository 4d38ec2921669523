"""Spatial ontology: from room-concept/class relations to class affinities.

The ontology is a bipartite 0/1 matrix ("a stove is located in kitchens").
Squaring it through shared rooms yields a row-stochastic class-to-class
affinity that the ontology-augmented model variant mixes into its inputs.
"""
import numpy as np

from scenecomp.catalog import default_catalog
from scenecomp.ontology import class_affinity, default_ontology


def main():
    catalog = default_catalog()
    onto = default_ontology()
    onto.check_catalog(catalog)
    print(f"ontology: {len(onto.room_concepts)} room concepts x "
          f"{len(onto.object_classes)} object classes")
    print(f"room concepts: {', '.join(onto.room_concepts)}")

    stove = catalog.index("stove")
    rooms_with_stove = [
        room for j, room in enumerate(onto.room_concepts) if onto.biadjacency[j, stove]
    ]
    print(f"\n'stove' is located in: {', '.join(rooms_with_stove)}")

    aff = class_affinity(onto)
    print(f"\naffinity rows sum to 1: {np.allclose(aff.sum(axis=1), 1.0)}")

    for label in ("stove", "bed", "chair"):
        i = catalog.index(label)
        top = np.argsort(-aff[i])[:6]
        partners = ", ".join(
            f"{catalog.label(j)} ({aff[i, j]:.3f})" for j in top if j != i
        )
        print(f"  {label:<6} co-locates with: {partners}")

    # affinity is what distinguishes the two model variants: the augmented
    # one feeds each room an extra, ontology-smoothed copy of its heatmaps
    chair, table, plant = (catalog.index(x) for x in ("chair", "table", "plant"))
    print(f"\nP[chair,table] = {aff[chair, table]:.4f} vs "
          f"P[chair,plant] = {aff[chair, plant]:.4f}")


if __name__ == "__main__":
    main()
